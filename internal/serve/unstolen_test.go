package serve_test

import (
	"os"
	"strconv"
	"strings"
	"time"
)

// unstolenTimer times the throughput floors. On a shared VM the wall
// clock stretches whenever the hypervisor runs someone else on this VM's
// CPUs, so elapsed takes that share out: the wall time × (1 − the stolen
// share of the busy ticks in /proc/stat over the interval), as the
// benchmark harness times its phases. With no steal, or where /proc/stat
// cannot be read, it is the plain wall time.
type unstolenTimer struct {
	start       time.Time
	steal, busy uint64
	ok          bool
}

func startUnstolen() unstolenTimer {
	steal, busy, ok := stealTicks()
	return unstolenTimer{start: time.Now(), steal: steal, busy: busy, ok: ok}
}

func (u unstolenTimer) elapsed() time.Duration {
	wall := time.Since(u.start)
	steal, busy, ok := stealTicks()
	if !u.ok || !ok || busy <= u.busy || steal < u.steal {
		return wall
	}
	share := float64(steal-u.steal) / float64(busy-u.busy)
	return time.Duration(float64(wall) * (1 - share))
}

// stealTicks reads the first line of /proc/stat: the ticks stolen from
// this VM's CPUs, and the busy ticks, every tick but idle and iowait (a
// stolen tick is one in which a CPU had work but was not running it).
func stealTicks() (steal, busy uint64, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseUint(f[i], 10, 64)
		if err != nil {
			return 0, 0, false
		}
		if i != 4 && i != 5 { // idle, iowait
			busy += v
		}
		if i == 8 {
			steal = v
		}
	}
	return steal, busy, true
}

// Command predtrace reads the flight recorder of a running predserve and
// renders it for humans: per-stage latency quantiles (decode → queue →
// batch → exec → encode) and a waterfall of the slowest captured
// requests, each bar segmented by where the request spent its time.
//
//	predtrace                          # fetch /v1/debug/requests from :8091
//	predtrace -slow                    # the slow-log instead
//	predtrace -base http://host:8091 -save now.json
//	predtrace -in before.json          # render a saved capture
//	predtrace -diff before.json        # fetched capture vs a saved one, per-stage delta
//
// Captures are the exact JSON the debug endpoints serve, so a saved file
// from last week diffs cleanly against a live fetch today.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"cohpredict/internal/flight"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "predtrace:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, argv []string) error {
	fs := flag.NewFlagSet("predtrace", flag.ContinueOnError)
	var (
		base = fs.String("base", "http://127.0.0.1:8091", "predserve base URL")
		slow = fs.Bool("slow", false, "fetch the slow-log (/v1/debug/slow) instead of the sampled ring")
		in   = fs.String("in", "", "render this saved capture file instead of fetching")
		save = fs.String("save", "", "write the capture JSON to this file as well")
		diff = fs.String("diff", "", "compare the capture against this saved one (per-stage p50/p99 delta)")
		top  = fs.Int("top", 10, "waterfall rows to render (slowest first)")
	)
	if err := fs.Parse(argv); err != nil {
		return err
	}

	var (
		cap flight.Capture
		err error
	)
	if *in != "" {
		cap, err = loadCapture(*in)
	} else {
		path := "/v1/debug/requests"
		if *slow {
			path = "/v1/debug/slow"
		}
		cap, err = fetchCapture(*base, path)
	}
	if err != nil {
		return err
	}
	if *save != "" {
		data, err := json.MarshalIndent(cap, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*save, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if *diff != "" {
		before, err := loadCapture(*diff)
		if err != nil {
			return err
		}
		renderDiff(w, before, cap)
		return nil
	}
	renderCapture(w, cap, *top)
	return nil
}

func fetchCapture(base, path string) (flight.Capture, error) {
	var cap flight.Capture
	resp, err := http.Get(strings.TrimRight(base, "/") + path)
	if err != nil {
		return cap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return cap, fmt.Errorf("GET %s: %s: %s", path, resp.Status, body)
	}
	if err := json.NewDecoder(resp.Body).Decode(&cap); err != nil {
		return cap, fmt.Errorf("decoding %s: %w", path, err)
	}
	return cap, nil
}

func loadCapture(path string) (flight.Capture, error) {
	var cap flight.Capture
	data, err := os.ReadFile(path)
	if err != nil {
		return cap, err
	}
	if err := json.Unmarshal(data, &cap); err != nil {
		return cap, fmt.Errorf("%s: %w", path, err)
	}
	return cap, nil
}

// stages are rendered in request order; each has an extractor and the
// single letter its waterfall segment is drawn with.
var stages = []struct {
	name   string
	letter byte
	ns     func(flight.Entry) int64
}{
	{"decode", 'd', func(e flight.Entry) int64 { return e.DecodeNS }},
	{"queue", 'q', func(e flight.Entry) int64 { return e.QueueNS }},
	{"batch", 'b', func(e flight.Entry) int64 { return e.BatchNS }},
	{"exec", 'x', func(e flight.Entry) int64 { return e.ExecNS }},
	{"encode", 'e', func(e flight.Entry) int64 { return e.EncodeNS }},
}

// stageStat is one row of the quantile table, in milliseconds.
type stageStat struct {
	Name          string
	P50, P99, Max float64
}

// stageStats computes per-stage p50/p99/max over the capture's entries,
// with a final "total" row for the end-to-end request time.
func stageStats(entries []flight.Entry) []stageStat {
	out := make([]stageStat, 0, len(stages)+1)
	col := make([]float64, len(entries))
	fill := func(name string, ns func(flight.Entry) int64) {
		for i, e := range entries {
			col[i] = float64(ns(e)) / 1e6
		}
		sort.Float64s(col)
		s := stageStat{Name: name, P50: quantile(col, 0.50), P99: quantile(col, 0.99)}
		if len(col) > 0 {
			s.Max = col[len(col)-1]
		}
		out = append(out, s)
	}
	for _, st := range stages {
		fill(st.name, st.ns)
	}
	fill("total", func(e flight.Entry) int64 { return e.TotalNS })
	return out
}

// quantile interpolates linearly between the order statistics of a sorted
// sample — exact at the observed points, unlike the bucketed estimate the
// histograms export.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo < 0 {
		lo = 0
	}
	if hi >= len(sorted) {
		hi = len(sorted) - 1
	}
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

const barWidth = 32

// waterfallBar draws one request as a fixed-width bar segmented by stage
// letters, scaled against maxNS (the slowest request on display). Stage
// segments round to at least one cell when the stage ran at all, so a
// fast-but-present stage stays visible.
func waterfallBar(e flight.Entry, maxNS int64) string {
	if maxNS <= 0 {
		maxNS = 1
	}
	bar := make([]byte, 0, barWidth)
	for _, st := range stages {
		ns := st.ns(e)
		if ns <= 0 {
			continue
		}
		n := int(float64(ns) / float64(maxNS) * barWidth)
		if n < 1 {
			n = 1
		}
		for i := 0; i < n && len(bar) < barWidth; i++ {
			bar = append(bar, st.letter)
		}
	}
	for len(bar) < barWidth {
		bar = append(bar, '.')
	}
	return string(bar)
}

func fmtMs(ms float64) string {
	return fmt.Sprintf("%.3fms", ms)
}

// renderCapture prints the quantile table and the top-N slowest requests
// as a waterfall.
func renderCapture(w io.Writer, cap flight.Capture, top int) {
	fmt.Fprintf(w, "capture: %s (sample 1/%d, slow >= %s, seen %d, %d records)\n\n",
		cap.Kind, cap.Sample, time.Duration(cap.SlowNS), cap.Seen, len(cap.Requests))
	if len(cap.Requests) == 0 {
		fmt.Fprintln(w, "no captured requests.")
		return
	}

	fmt.Fprintf(w, "%-8s %12s %12s %12s\n", "stage", "p50", "p99", "max")
	for _, s := range stageStats(cap.Requests) {
		fmt.Fprintf(w, "%-8s %12s %12s %12s\n", s.Name, fmtMs(s.P50), fmtMs(s.P99), fmtMs(s.Max))
	}

	byTotal := append([]flight.Entry(nil), cap.Requests...)
	sort.SliceStable(byTotal, func(i, j int) bool { return byTotal[i].TotalNS > byTotal[j].TotalNS })
	if top > len(byTotal) {
		top = len(byTotal)
	}
	maxNS := byTotal[0].TotalNS

	fmt.Fprintf(w, "\nslowest %d of %d (d=decode q=queue b=batch x=exec e=encode):\n", top, len(byTotal))
	for _, e := range byTotal[:top] {
		mark := ""
		if len(e.Faults) > 0 {
			mark = " faults=" + strings.Join(e.Faults, ",")
		}
		if e.Replay {
			mark += " replay"
		}
		fmt.Fprintf(w, "%5d %4s %3d %6dev %9s |%s| %s%s\n",
			e.Seq, e.Transport, e.Status, e.Events,
			fmtMs(float64(e.TotalNS)/1e6), waterfallBar(e, maxNS), e.ID, mark)
	}
}

// renderDiff prints the per-stage quantiles of two captures side by side
// with the relative change, before → after.
func renderDiff(w io.Writer, before, after flight.Capture) {
	fmt.Fprintf(w, "diff: %d -> %d records\n\n", len(before.Requests), len(after.Requests))
	a := stageStats(before.Requests)
	b := stageStats(after.Requests)
	fmt.Fprintf(w, "%-8s %12s %12s %8s   %12s %12s %8s\n",
		"stage", "p50 before", "p50 after", "Δp50", "p99 before", "p99 after", "Δp99")
	for i := range a {
		fmt.Fprintf(w, "%-8s %12s %12s %8s   %12s %12s %8s\n",
			a[i].Name,
			fmtMs(a[i].P50), fmtMs(b[i].P50), delta(a[i].P50, b[i].P50),
			fmtMs(a[i].P99), fmtMs(b[i].P99), delta(a[i].P99, b[i].P99))
	}
}

func delta(before, after float64) string {
	if before == 0 {
		if after == 0 {
			return "0%"
		}
		return "new"
	}
	return fmt.Sprintf("%+.0f%%", (after-before)/before*100)
}

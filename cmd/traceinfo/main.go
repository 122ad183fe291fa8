// Command traceinfo inspects coherence-event traces (generated with
// `predsim -save`): event counts, prevalence, reader-set size histogram,
// and a per-store-site (PC) composition breakdown with a feedback-stability
// measure — the diagnostics used while validating the workload kernels'
// sharing structure against the paper's Tables 5 and 6.
//
//	predsim -save traces/
//	traceinfo traces/mp3d.trace
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"cohpredict/internal/obs"
	"cohpredict/internal/report"
	"cohpredict/internal/trace"
)

func main() {
	topN := flag.Int("top", 12, "show the N busiest store sites")
	version := flag.Bool("version", false, "print build identity and exit")
	flag.Parse()
	if *version {
		fmt.Println("traceinfo", obs.Version())
		return
	}
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: traceinfo [-top N] <trace-file>...")
		os.Exit(2)
	}
	for _, path := range flag.Args() {
		if err := inspectFile(os.Stdout, path, *topN); err != nil {
			fmt.Fprintln(os.Stderr, "traceinfo:", err)
			os.Exit(1)
		}
	}
}

func inspectFile(w io.Writer, path string, topN int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := trace.Read(f)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return inspect(w, path, tr, topN)
}

func inspect(w io.Writer, path string, tr *trace.Trace, topN int) error {
	fmt.Fprintf(w, "== %s: %d nodes, %d events\n", path, tr.Nodes, len(tr.Events))
	if len(tr.Events) == 0 {
		return nil
	}

	// Global statistics.
	var sharingBits, decisions uint64
	sizeHist := make([]int, tr.Nodes+1)
	blocks := map[uint64]struct{}{}
	writers := map[int]uint64{}
	for _, e := range tr.Events {
		n := e.FutureReaders.Count()
		sharingBits += uint64(n)
		decisions += uint64(tr.Nodes)
		sizeHist[n]++
		blocks[e.Addr] = struct{}{}
		writers[int(e.PID)]++
	}
	fmt.Fprintf(w, "blocks: %d   prevalence: %.2f%%   degree of sharing: %.2f\n",
		len(blocks), 100*float64(sharingBits)/float64(decisions),
		float64(sharingBits)/float64(len(tr.Events)))

	fmt.Fprintln(w, "\nreader-set size histogram:")
	for n, c := range sizeHist {
		if c == 0 {
			continue
		}
		pct := 100 * float64(c) / float64(len(tr.Events))
		fmt.Fprintf(w, "  %2d readers: %7d (%5.1f%%) %s\n", n, c, pct, hashBar(pct))
	}

	// Per-PC composition.
	type agg struct {
		pc            uint64
		n             int
		fEmpty        int
		fBits, stable int
	}
	byPC := map[uint64]*agg{}
	for _, e := range tr.Events {
		a := byPC[e.PC]
		if a == nil {
			a = &agg{pc: e.PC}
			byPC[e.PC] = a
		}
		a.n++
		if e.FutureReaders.IsEmpty() {
			a.fEmpty++
		}
		a.fBits += e.FutureReaders.Count()
		a.stable += e.FutureReaders.Intersect(e.InvReaders).Count()
	}
	sites := make([]*agg, 0, len(byPC))
	for _, a := range byPC {
		sites = append(sites, a)
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i].n > sites[j].n })
	t := report.NewTable(fmt.Sprintf("\nbusiest %d of %d store sites:", topN, len(sites)),
		"PC", "Events", "NoReaders%", "AvgReaders", "Repeat%")
	for i, a := range sites {
		if i >= topN {
			break
		}
		repeat := 0.0
		if a.fBits > 0 {
			repeat = 100 * float64(a.stable) / float64(a.fBits)
		}
		t.AddRowf(fmt.Sprint(a.pc), fmt.Sprint(a.n),
			fmt.Sprintf("%.0f", 100*float64(a.fEmpty)/float64(a.n)),
			fmt.Sprintf("%.2f", float64(a.fBits)/float64(a.n)),
			fmt.Sprintf("%.0f", repeat))
	}
	fmt.Fprintln(w, t.String())

	fmt.Fprintln(w, "events per writer node:")
	for pid := 0; pid < tr.Nodes; pid++ {
		fmt.Fprintf(w, "  node %2d: %d\n", pid, writers[pid])
	}
	fmt.Fprintln(w)
	return nil
}

func hashBar(pct float64) string {
	n := int(pct / 2)
	if n > 50 {
		n = 50
	}
	out := make([]byte, n)
	for i := range out {
		out[i] = '#'
	}
	return string(out)
}

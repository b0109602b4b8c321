package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
)

// writeTrace writes the last traced trial's spans of a network workload as
// Chrome trace-event JSON (chrome://tracing, Perfetto): one thread per
// slot, an "op" span per sampled op with its "gen.wait" and layer-call
// children, all carrying the op's id.
func writeTrace(o runOpts, w *workload, slots [][]*slot) error {
	var lanes [][]span
	for _, hs := range slots {
		for _, sl := range hs {
			lanes = append(lanes, sl.spans)
		}
	}
	return writeSpans(o, w.name, lanes)
}

func writeSpans(o runOpts, workload string, lanes [][]span) error {
	if o.outDir == "" {
		return nil
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(o.outDir, fmt.Sprintf("trace-%s-seed%d.json", workload, o.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	fmt.Fprint(bw, `{"displayTimeUnit":"ns","traceEvents":[`)
	sep := ""
	for tid, spans := range lanes {
		for _, sp := range spans {
			fmt.Fprintf(bw, `%s{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"op":%d}}`,
				sep, sp.name, tid, float64(sp.start)/1e3, float64(sp.end-sp.start)/1e3, sp.op)
			sep = ",\n"
		}
	}
	fmt.Fprint(bw, "]}\n")
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// Depth rounding and the correlation ring
//
// Each generator connection correlates responses to scheduled-arrival
// timestamps through a ring indexed by request id, so the ring size must
// be a power of two (id & mask replaces a modulo on the hot path) and at
// least the in-flight window (a slot must never be reused before its
// response is reaped). By default Config.Depth is rounded UP to the next
// power of two and the rounded value serves as both the window and the
// ring — a requested Depth of 100 actually pipelines 128 deep, which
// matters when comparing depth-sensitive results across tools. Set
// Config.Ring to pin the ring size explicitly (validated: power of two,
// >= Depth); the window then honors the exact configured Depth.
//
// (The package doc proper lives in loadgen.go.)

package loadgen

import (
	"encoding/json"
	"os"
)

// BenchDoc is the BENCH_loadgen.json document: the generator shape and
// the offered-load sweep. Both cmd/bloomload and cmd/bloombench -load
// emit it, so CI trend lines see one schema.
type BenchDoc struct {
	Conns        int      `json:"conns"`
	Depth        int      `json:"depth"`
	ReadFrac     float64  `json:"read_frac"`
	ValueBytes   int      `json:"value_bytes"`
	Registers    int      `json:"registers"`
	DurationSecs float64  `json:"step_duration_secs"`
	PeakOpsPS    float64  `json:"peak_achieved_ops_per_sec"`
	Steps        []Result `json:"sweep"`
	// VSizes is the value-size axis: one closed-loop peak probe per write
	// payload size (rows named "vsize-<bytes>").
	VSizes []Result `json:"value_size_sweep,omitempty"`
}

// WriteFile marshals the document to path with a trailing newline.
func (d *BenchDoc) WriteFile(path string) error {
	blob, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// ReplicaModeRow is one protocol variant's closed-loop saturation row in
// a ReplicaLoadDoc: achieved throughput, tail latency, and the protocol
// accounting (rounds/op, combining hit rate, elided write-backs) that
// explains it.
type ReplicaModeRow struct {
	Mode            string  `json:"mode"`
	OpsPerSec       float64 `json:"achieved_ops_per_sec"`
	P99Us           float64 `json:"p99_us"`
	ReadRoundsPerOp float64 `json:"read_rounds_per_op"`
	CombinedFrac    float64 `json:"combined_read_frac"`
	ElidedReads     int64   `json:"elided_reads"`
}

// ReplicaLoadDoc is the BENCH_replica_load.json document: the replicated
// register under the cluster load generator. EnginePeak is the quorum
// engine's closed-loop peak in the selected mode, Modes holds one
// saturation row per protocol variant, and Sweep the open-loop latency
// curve at fractions of the peak.
type ReplicaLoadDoc struct {
	Replicas     int              `json:"replicas"`
	Clients      int              `json:"clients"`
	Depth        int              `json:"depth"`
	ReadFrac     float64          `json:"read_frac"`
	ValueBytes   int              `json:"value_bytes"`
	DurationSecs float64          `json:"step_duration_secs"`
	EnginePeak   float64          `json:"engine_peak_ops_per_sec"`
	Modes        []ReplicaModeRow `json:"modes,omitempty"`
	Sweep        []Result         `json:"sweep,omitempty"`
}

// WriteFile marshals the document to path with a trailing newline.
func (d *ReplicaLoadDoc) WriteFile(path string) error {
	blob, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// Command perfbench is segidx's benchmark: one program that runs one of
// three workloads, checks every answer against a brute-force mirror kept
// apart from the index, and prints its metrics as one JSON object on the
// last line of standard output.
//
//	perfbench --workload paper_sweep|serve_mixed|temporal_churn --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 the same
// run is traced (spans and counter deltas around every call the benchmark
// makes into a layer) and it prints the per-layer metrics. It drives the
// program only through the segidx facade, internal/server's Handler and the
// store package. See README.md for what each workload and metric is.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"segidx/internal/store"
)

// Settings shared by the workloads. They are fixed, not flags, so that both
// sides of any comparison run the same benchmark.
const (
	setupReps  = 5   // set-ups per run; setup_s is their median
	flushEvery = 256 // group commit: one Flush per this many mutations
)

// config is one run's arguments.
type config struct {
	seed    uint64
	window  time.Duration
	trace   bool
	dir     string // scratch directory for durable stores, inside the checkout
	fs      *countingFS
	started time.Time
}

// result is what a workload reports.
type result struct {
	endToEnd  map[string]float64
	perLayer  map[string]float64
	attempted int
	failed    int
	spans     []span
}

// units of every metric; the names are BENCHMARK.json's. The read and
// write throughputs, the slice p50 and the read and write p99s are
// measured and printed to standard error, but left out of the result:
// their spread between runs on a shared host is wider than any bound that
// would still catch a regression (see README.md).
var endToEndUnits = map[string]string{
	"setup_s":                   "s",
	"search_p50_us":             "us",
	"stab_p50_us":               "us",
	"snapshot_p50_us":           "us",
	"insert_p50_us":             "us",
	"delete_p50_us":             "us",
	"nodes_per_search":          "nodes",
	"heap_mb":                   "MB",
	"disk_bytes_per_user_byte":  "ratio",
	"write_bytes_per_user_byte": "ratio",
}

var perLayerUnits = map[string]string{
	"server.transport_p50_us":       "us",
	"server.handler_p50_us":         "us",
	"server.cache_hit_ratio":        "ratio",
	"forest.shards_per_read":        "shards",
	"core.search_nodes_per_read":    "nodes",
	"core.insert_nodes_per_insert":  "nodes",
	"core.splits_per_1k_inserts":    "count",
	"core.cuts_per_1k_inserts":      "count",
	"core.reinserts_per_1k_writes":  "count",
	"skeleton.coalesces":            "count",
	"buffer.gets_per_read":          "count",
	"buffer.misses_per_read":        "count",
	"buffer.evictions_per_1k_ops":   "count",
	"buffer.clones_per_write":       "count",
	"buffer.retained_versions_peak": "count",
	"buffer.collected_per_write":    "count",
	"accel.stab_sidecar_share":      "ratio",
	"accel.slice_sidecar_share":     "ratio",
	"accel.stab_sidecar_p50_us":     "us",
	"accel.stab_tree_p50_us":        "us",
	"accel.slice_sidecar_p50_us":    "us",
	"accel.slice_tree_p50_us":       "us",
	"accel.probes_per_1k_reads":     "count",
	"accel.slots_per_live":          "ratio",
	"store.flush_p50_us":            "us",
	"store.fsyncs_per_1k_writes":    "count",
	"store.wal_bytes_per_write":     "bytes",
	"store.page_bytes_per_write":    "bytes",
	"bench.traced_read_ops_s":       "1/s",
}

var workloads = map[string]func(*config) (*result, error){
	"paper_sweep":    paperSweep,
	"serve_mixed":    serveMixed,
	"temporal_churn": temporalChurn,
}

// errCheck marks a failed answer check: the run printed a result that is
// not correct.
var errCheck = errors.New("answer check failed")

func main() {
	var (
		workload = flag.String("workload", "", "paper_sweep | serve_mixed | temporal_churn")
		seed     = flag.Uint64("seed", 1, "input seed")
		seconds  = flag.Float64("seconds", 10, "length of the timed window in seconds")
		trace    = flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload paper_sweep|serve_mixed|temporal_churn --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	os.Exit(runMain(*workload, run, *seed, *seconds, *trace == 1))
}

func runMain(name string, run func(*config) (*result, error), seed uint64, seconds float64, trace bool) int {
	dir := filepath.Join(".bench_build", fmt.Sprintf("perfbench-%s-%d", name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	// Every durable store and forest manifest opens its files through
	// store.OS; swapping it before any index exists counts all file I/O.
	cfs := &countingFS{inner: store.OS}
	store.OS = cfs

	cfg := &config{
		seed:    seed,
		window:  time.Duration(seconds * float64(time.Second)),
		trace:   trace,
		dir:     dir,
		fs:      cfs,
		started: time.Now(),
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", name, err)
		if errors.Is(err, errCheck) && res != nil {
			emit(res, false, trace)
		}
		return 1
	}
	if trace {
		path := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.jsonl", name, seed))
		if err := writeTrace(path, res.spans); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing trace:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans, first %d written to %s\n",
			len(res.spans), min(len(res.spans), maxSpansWritten), path)
	}
	emit(res, res.failed == 0, trace)
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints the human-readable table to stderr and the result object as
// the last line of stdout.
func emit(res *result, correct, trace bool) {
	vals, units := res.endToEnd, endToEndUnits
	if trace {
		vals, units = res.perLayer, perLayerUnits
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, res.attempted, res.failed, make(map[string]metric, len(units))}
	names := make([]string, 0, len(units))
	for n := range units {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		out.Metrics[n] = metric{Value: vals[n], Unit: units[n]}
		fmt.Fprintf(os.Stderr, "  %-32s %14.4f %s\n", n, vals[n], units[n])
	}
	for n, v := range vals {
		if _, ok := units[n]; !ok {
			fmt.Fprintf(os.Stderr, "  %-32s %14.4f (not in the result)\n", n, v)
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// noteSetups prints each set-up's time and node count to standard error,
// for comparing one set-up's spread with the median's.
func noteSetups(setups, nodes []float64) {
	fmt.Fprintf(os.Stderr, "perfbench: set-up times %.4f s, nodes per search %.4f\n", setups, nodes)
}

// liveHeapMB returns the live heap after a forced collection.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// ratio is a/b, or 0 when b is 0 (a layer the workload does not use).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

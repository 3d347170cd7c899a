// Command perfbench is the repository's benchmark. It drives the
// runtime face (core clients, the aggregation cluster, the broker and
// the store stack) and the DES face (iostrat) through their public
// entry points on seeded workloads, checks every output, and prints one
// JSON result line: the end-to-end metrics, or with -trace 1 the
// per-layer metrics of a traced run. See README.md.
//
//	go run . --workload ckpt-stack --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/compress"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEndDefs are reported by every workload with -trace 0.
var endToEndDefs = []metricDef{
	{"setup_s", "s"},
	{"throughput_MBps", "MB/s"},
	{"ms_per_iter", "ms"},
	{"write_p50_us", "us"},
	{"restore_MBps", "MB/s"},
	{"stored_bytes_per_user_byte", "B/B"},
	{"ok_frac", "frac"},
	{"peak_rss_MB", "MB"},
}

// layerDefs are reported by every workload with -trace 1; a layer the
// workload does not run reports 0.
var layerDefs = func() []metricDef {
	defs := []metricDef{
		{"core.write_calls", "count"},
		{"core.write_s", "s"},
		{"core.end_iteration_s", "s"},
		{"core.skipped_writes", "count"},
		{"cluster.root_arrival_p50_ms", "ms"},
		{"cluster.batches_forwarded", "count"},
		{"cluster.bytes_forwarded", "B"},
		{"cluster.objects_written", "count"},
		{"cluster.blocks_lost", "count"},
		{"cluster.manifest_put_calls", "count"},
		{"cluster.manifest_put_s", "s"},
		{"cluster.restore_scan_s", "s"},
		{"cluster.restore_replay_s", "s"},
		{"storage.broker_grants", "count"},
		{"storage.broker_wait_s", "s"},
		{"chunk.put_calls", "count"},
		{"chunk.put_self_s", "s"},
		{"chunk.get_self_s", "s"},
		{"chunk.chunks_stored", "count"},
		{"chunk.chunks_deduped", "count"},
		{"chunk.dedup_byte_frac", "frac"},
		{"compress.put_calls", "count"},
		{"compress.put_self_s", "s"},
		{"compress.get_self_s", "s"},
		{"compress.ratio", "ratio"},
	}
	for _, c := range codecNames() {
		defs = append(defs, metricDef{"compress.objects." + c, "count"})
	}
	defs = append(defs,
		metricDef{"sdf.put_calls", "count"},
		metricDef{"sdf.put_bytes", "B"},
		metricDef{"sdf.put_s", "s"},
		metricDef{"sdf.get_s", "s"},
		metricDef{"memory.put_s", "s"},
		metricDef{"memory.get_s", "s"},
		metricDef{"go.alloc_bytes_per_user_byte", "B/B"},
		metricDef{"go.mallocs_per_iter", "count"},
		metricDef{"go.gc_cycles", "count"},
		metricDef{"go.gc_pause_s", "s"},
	)
	for _, a := range desApproaches {
		defs = append(defs, metricDef{"iostrat.wall_ms." + a.name, "ms"})
	}
	return append(defs,
		metricDef{"bench.trace_overhead_frac", "frac"},
		metricDef{"bench.write_p99_us", "us"},
		metricDef{"bench.write_samples", "count"},
	)
}()

func codecNames() []string { return compress.Names() }

func zeroLayerMetrics() map[string]float64 {
	m := make(map[string]float64, len(layerDefs))
	for _, d := range layerDefs {
		m[d.name] = 0
	}
	return m
}

// options are the parsed command line.
type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	scratch  string // per-process directory for store files
}

// report is what a workload run hands back for printing.
type report struct {
	attempted, failed int64
	problems          []string
	summary           []string
	metrics           map[string]float64
	tracer            *tracer
}

var workloads = map[string]func(options) (*report, error){
	"ckpt-stack":      func(o options) (*report, error) { return runRuntime(&ckptStack, o) },
	"fanin-small":     func(o options) (*report, error) { return runRuntime(&faninSmall, o) },
	"des-kraken-9216": runDES,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: ckpt-stack, fanin-small or des-kraken-9216")
	seed := fs.Uint64("seed", 1, "input seed")
	secs := fs.Int("seconds", 10, "measurement budget in seconds")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for results, span dumps and store files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runW, ok := workloads[*workload]
	if !ok || *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (one of %s), -seconds >= 1 and -trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	o := options{workload: *workload, seed: *seed, seconds: time.Duration(*secs) * time.Second, trace: *trace == 1,
		scratch: filepath.Join(*out, fmt.Sprintf("scratch-%d", os.Getpid()))}
	if err := os.MkdirAll(o.scratch, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	rep, err := runW(o)
	os.RemoveAll(o.scratch)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := resultLine(rep, o.trace)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	for i, p := range rep.problems {
		if i == 20 {
			fmt.Fprintf(stderr, "... %d more problems\n", len(rep.problems)-i)
			break
		}
		fmt.Fprintf(stderr, "problem: %s\n", p)
	}
	base := filepath.Join(*out, fmt.Sprintf("%s-seed%d-trace%d", o.workload, o.seed, *trace))
	text := strings.Join(append(rep.summary, line), "\n") + "\n"
	if err := os.WriteFile(base+".result.txt", []byte(text), 0o644); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if rep.tracer != nil {
		if err := rep.tracer.dump(base+".spans.json", o.workload, o.seed); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	fmt.Fprint(stdout, text)
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// resultLine renders the final JSON line, checking that every metric of
// the mode is present and finite.
func resultLine(rep *report, traced bool) (string, error) {
	defs := endToEndDefs
	if traced {
		defs = layerDefs
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s missing or not finite (%v)", d.name, v)
		}
		ms[d.name] = metric{v, d.unit}
	}
	if len(rep.metrics) != len(defs) {
		return "", fmt.Errorf("%d metrics computed, %d defined", len(rep.metrics), len(defs))
	}
	data, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.failed == 0 && len(rep.problems) == 0, rep.attempted, rep.failed, ms})
	return string(data), err
}

// largestSelf names the store-side layer with the largest self time in
// a traced runtime run.
func largestSelf(m map[string]float64) string {
	layers := []struct {
		name string
		s    float64
	}{
		{"core", m["core.write_s"] + m["core.end_iteration_s"]},
		{"storage.broker", m["storage.broker_wait_s"]},
		{"chunk", m["chunk.put_self_s"] + m["chunk.get_self_s"]},
		{"compress", m["compress.put_self_s"] + m["compress.get_self_s"]},
		{"sdf", m["sdf.put_s"] + m["sdf.get_s"]},
		{"memory", m["memory.put_s"] + m["memory.get_s"]},
	}
	best := layers[0]
	parts := make([]string, len(layers))
	for i, l := range layers {
		if l.s > best.s {
			best = l
		}
		parts[i] = fmt.Sprintf("%s=%.3fs", l.name, l.s)
	}
	return fmt.Sprintf("largest self time per episode: %s (%s)", best.name, strings.Join(parts, " "))
}

// median returns the middle value (NaN for no values).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between order statistics (NaN for no
// values).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// peakRSSMB is the process's peak resident set in MB (10^6 bytes).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

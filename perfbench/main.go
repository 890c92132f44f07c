// Command perfbench is the repository benchmark. It compiles generated
// corpora through the fmsa layers and prints every end-to-end metric (or,
// with -trace 1, every per-layer metric) by name and unit, then one JSON
// result line:
//
//	bash perfbench/run.sh --workload spec-t10 --seed 0 --seconds 20 --trace 0
//
// Workloads (README.md records why each was chosen and which layer should
// move which metric):
//
//	spec-t10      the 19 SPEC-like corpora, batch pipeline at t=10
//	unscaled-t10  six draws of the 4 paper-scale corpora, same pipeline
//	serve-delta   warm fmsa-serve sessions on four draws of 445.gobmk,
//	              each taking a closed-loop stream of 1% edits
//	all           each of the above in its own process, in sequence
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"
)

// workers is the exploration worker count of end-to-end runs: the
// benchmark host has two cores. Traced runs use one worker, because the
// align, codegen and cache counters of explore.Report depend on
// speculation when Workers > 1 and must repeat exactly across traced runs.
const workers = 2

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	state    string // directory for similarity-db segments and span dumps
	tiny     bool   // self-test scale: a few small modules (set by the tests)
}

var workloads = map[string]func(config) (*result, error){
	"spec-t10":     runSpec,
	"unscaled-t10": runUnscaled,
	"serve-delta":  runServeDelta,
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "spec-t10, unscaled-t10, serve-delta or all")
	flag.Int64Var(&cfg.seed, "seed", 0, "corpus seed; 0 gives the paper-calibrated profiles")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measurement time per run")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer measurement instead")
	flag.StringVar(&cfg.state, "state", ".bench_build/perfbench", "directory for store segments and span dumps")
	flag.Parse()
	cfg.trace = trace == 1

	if cfg.workload == "all" {
		os.Exit(runAll(cfg))
	}
	run := workloads[cfg.workload]
	if run == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", cfg.workload)
		os.Exit(2)
	}
	if err := os.MkdirAll(cfg.state, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := res.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// runAll runs every workload in its own child process, one after the
// other, so each peak_rss_mb belongs to one workload. It forwards the
// children's output and exits nonzero if any child failed or counted a
// failed operation.
func runAll(cfg config) int {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	status := 0
	for _, name := range names {
		args := []string{"-workload", name, "-seed", strconv.FormatInt(cfg.seed, 10),
			"-seconds", strconv.FormatFloat(cfg.seconds, 'f', -1, 64), "-state", cfg.state}
		if cfg.trace {
			args = append(args, "-trace", "1")
		}
		fmt.Printf("== %s\n", name)
		cmd := exec.Command(os.Args[0], args...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		os.Stdout.Write(out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			status = 1
			continue
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var r struct{ Failed int }
		if json.Unmarshal([]byte(lines[len(lines)-1]), &r) != nil || r.Failed > 0 {
			status = 1
		}
	}
	return status
}

// metric is one named measurement.
type metric struct {
	name, unit string
	value      float64
}

// result accumulates one run's operations, failures and metrics.
type result struct {
	attempted, failed int
	problems          []string
	metrics           []metric
	info              []string
}

// op counts one attempted operation; any problem makes it a failure.
func (r *result) op(problems []string) {
	r.attempted++
	if len(problems) > 0 {
		r.failed++
		r.problems = append(r.problems, problems...)
	}
}

func (r *result) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name, unit, v})
}

func (r *result) note(format string, args ...any) {
	r.info = append(r.info, fmt.Sprintf(format, args...))
}

// print writes notes, problems and metrics as text, then the JSON result
// as the last line.
func (r *result) print(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, s := range r.info {
		fmt.Fprintf(bw, "# %s\n", s)
	}
	for i, p := range r.problems {
		if i == 20 {
			fmt.Fprintf(bw, "problem: ... %d more\n", len(r.problems)-i)
			break
		}
		fmt.Fprintf(bw, "problem: %s\n", p)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(r.metrics))
	for _, m := range r.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is %v", m.name, m.value)
		}
		fmt.Fprintf(bw, "%-34s %14.6f %s\n", m.name, m.value, m.unit)
		ms[m.name] = value{m.value, m.unit}
	}
	fmt.Fprintf(bw, "%-34s %14.6f ratio (%d of %d operations failed)\n", "fail_frac",
		float64(r.failed)/float64(max(r.attempted, 1)), r.failed, r.attempted)
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, ms})
	if err != nil {
		return err
	}
	bw.Write(line)
	bw.WriteByte('\n')
	return bw.Flush()
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by the nearest-rank method: the
// smallest sample with at least q of all samples at or below it. The
// median of an even count is the mean of the middle two.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q == 0.5 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// geomean returns the geometric mean of positive ratios.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// peakRSSMB returns this process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

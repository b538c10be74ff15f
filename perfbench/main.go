// Command perfbench is the repository's benchmark. It drives tarmd as
// a separate process over HTTP from one load-generator process, on
// data generated from a seed with internal/gen, checks every answer
// against an in-process reference, and prints each metric by name with
// its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": n, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with no
// tracing anywhere. With --trace 1 the same HTTP run happens first,
// then the run's inputs are replayed in process with a span recorded
// around each call into a layer, and the metrics are the per-layer
// ones.
//
// Usage (from the repository root, through the wrapper that builds
// tarmd and this command):
//
//	bash perfbench/run.sh --workload cold-mine --seed 1 --seconds 30 --trace 0
//
// See perfbench/README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	size     string // key of shapes
	tarmd    string // tarmd binary
	work     string // scratch directory for data and logs
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(options, *report) error{
	"cold-mine":        runColdMine,
	"warm-session":     runWarmSession,
	"ingest-subscribe": runIngest,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	var o options
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "cold-mine, warm-session or ingest-subscribe")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the generated data and statement order")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the measured phase")
	fs.IntVar(&trace, "trace", 0, "1 = also replay in process with spans and report per-layer metrics")
	fs.StringVar(&o.size, "size", "full", "data shape: full or tiny (the smoke test's)")
	fs.StringVar(&o.tarmd, "tarmd", "", "tarmd binary to drive")
	fs.StringVar(&o.work, "work", "", "scratch directory (wiped at start)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	runner, ok := workloads[o.workload]
	if !ok || o.tarmd == "" || o.work == "" || o.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload cold-mine|warm-session|ingest-subscribe, --tarmd, --work, --seconds > 0, --trace 0|1")
		return 2
	}
	if _, ok := shapes[o.size]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown --size %q\n", o.size)
		return 2
	}
	if err := os.RemoveAll(o.work); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	rep := newReport()
	fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%g trace=%d size=%s nproc=%d go=%s\n",
		o.workload, o.seed, o.seconds, trace, o.size, runtime.NumCPU(), runtime.Version())
	err := runner(o, rep)
	if err != nil {
		// A run that could not finish its measurement prints no result.
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := rep.write(stdout, o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if rep.failed > 0 {
		return 1
	}
	return 0
}

// report collects one run's counts, failures and named values. It is
// safe for concurrent use.
type report struct {
	mu                sync.Mutex
	attempted, failed int
	failures          []string
	values            map[string]float64
	info              []string // host facts and readouts printed before the metrics
}

func newReport() *report { return &report{values: make(map[string]float64)} }

// ok counts one attempted operation that succeeded.
func (r *report) ok() {
	r.mu.Lock()
	r.attempted++
	r.mu.Unlock()
}

// fail counts one attempted operation that failed, refused or
// answered wrongly.
func (r *report) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// check counts one output check.
func (r *report) check(good bool, format string, args ...any) {
	if good {
		r.ok()
		return
	}
	r.fail(format, args...)
}

func (r *report) set(name string, v float64) {
	r.mu.Lock()
	r.values[name] = v
	r.mu.Unlock()
}

func (r *report) note(format string, args ...any) {
	r.mu.Lock()
	r.info = append(r.info, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

// endToEnd maps the end-to-end metrics of BENCHMARK.json onto each
// workload's own metric. Every workload reports every end-to-end
// metric, so cpu_ms_per_op names the workload's foreground operation:
// a statement on the read workloads, an ingested day (its append and
// the refresh it triggers) on ingest-subscribe. The gated metrics are
// tarmd's CPU time, not wall time: on a shared VM the hypervisor's
// steal moved client latencies by up to 2x between runs, CPU time by
// about 15%. The latencies are printed in the report.
var endToEnd = []struct {
	name, unit string
	read       string // cold-mine, warm-session
	ingest     string // ingest-subscribe
}{
	{"cpu_ms_per_op", "ms", "stmt_cpu_ms", "append_cpu_ms"},
	{"setup_s", "s", "setup_s", "setup_s"},
	{"rss_mb", "MB", "rss_mb", "rss_mb"},
}

// perLayer lists the per-layer metrics reported with --trace 1, with
// their units. A metric a workload does not exercise reads 0.
var perLayer = []struct{ name, unit string }{
	{"server.overhead_ms", "ms"},
	{"server.append_overhead_ms", "ms"},
	{"server.delivery_ms", "ms"},
	{"tml.parse_us", "us"},
	{"tml.exec_ms", "ms"},
	{"tml.unattributed_ms", "ms"},
	{"tml.diff_us", "us"},
	{"tml.deltas_per_refresh", "count"},
	{"tml.delta_useful_ratio", "ratio"},
	{"tdb.count_stats_us", "us"},
	{"tdb.load_ms", "ms"},
	{"tdb.recover_ms", "ms"},
	{"tdb.recover_tx", "count"},
	{"tdb.append_us", "us"},
	{"tdb.wal_bytes_per_tx", "B"},
	{"tdb.fsyncs_per_append", "ratio"},
	{"tdb.dirty_granules_per_refresh", "count"},
	{"apriori.predict_us", "us"},
	{"apriori.l1_ms", "ms"},
	{"apriori.l2_ms", "ms"},
	{"apriori.lk_ms", "ms"},
	{"apriori.l2_counted", "count"},
	{"apriori.l2_frequent", "count"},
	{"apriori.l2_useful_ratio", "ratio"},
	{"apriori.roaring_pass_share", "ratio"},
	{"core.build_hold_ms", "ms"},
	{"core.cache_hit_us", "us"},
	{"core.rethreshold_ms", "ms"},
	{"core.cache_hit_ratio", "ratio"},
	{"core.premaintain_ms", "ms"},
	{"core.maintain_ms", "ms"},
	{"core.mine_periods_ms", "ms"},
	{"core.mine_cycles_ms", "ms"},
	{"core.mine_calendars_ms", "ms"},
	{"core.mine_during_ms", "ms"},
	{"core.mine_history_ms", "ms"},
	{"core.hold_mb", "MB"},
	{"self.tml_ms", "ms"},
	{"self.core_ms", "ms"},
	{"self.apriori_ms", "ms"},
	{"self.tdb_ms", "ms"},
	{"bench.gen_late_p95_ms", "ms"},
	{"bench.close_backlog", "count"},
	{"bench.trace_overhead_ratio", "ratio"},
}

// units of the workload-named values printed in the text report.
var units = map[string]string{
	"stmt_p50_ms": "ms", "stmt_p90_ms": "ms", "stmt_p95_ms": "ms", "stmt_per_s": "1/s",
	"append_p50_ms": "ms", "append_p90_ms": "ms", "append_p95_ms": "ms", "append_per_s": "1/s",
	"close_to_delta_p50_ms": "ms", "close_to_delta_p90_ms": "ms",
	"stmt_cpu_ms": "ms", "append_cpu_ms": "ms",
	"setup_s": "s", "setup_wall_s": "s", "rss_mb": "MB", "fail_ratio": "ratio",
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// write prints the text report and then the JSON result line.
func (r *report) write(w io.Writer, o options) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.attempted == 0 {
		return errors.New("no operation was attempted")
	}
	r.values["fail_ratio"] = float64(r.failed) / float64(r.attempted)
	for _, l := range r.info {
		fmt.Fprintln(w, l)
	}
	for _, f := range r.failures {
		fmt.Fprintln(w, "FAIL", f)
	}
	var names []string
	for n := range r.values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if u, ok := units[n]; ok {
			fmt.Fprintf(w, "%s %s %.4f %s\n", o.workload, n, r.values[n], u)
		}
	}
	out := resultOut{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricOut),
	}
	if o.trace {
		for _, m := range perLayer {
			v := r.values[m.name]
			fmt.Fprintf(w, "%s layer %s %.4f %s\n", o.workload, m.name, v, m.unit)
			out.Metrics[m.name] = metricOut{v, m.unit}
		}
	} else {
		for _, m := range endToEnd {
			src := m.read
			if o.workload == "ingest-subscribe" {
				src = m.ingest
			}
			v, ok := r.values[src]
			if !ok {
				return fmt.Errorf("metric %s (%s) was not measured", m.name, src)
			}
			out.Metrics[m.name] = metricOut{v, m.unit}
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// deadline is the end of a measured phase that starts now.
func (o options) deadline() time.Time {
	return time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
}

// replayDeadline is the end of one in-process replay that starts now:
// the traced run replays twice (untraced, then traced), each for half
// the measured phase, so a traced run stays within twice its length.
func (o options) replayDeadline() time.Time {
	return time.Now().Add(time.Duration(o.seconds * float64(time.Second) / 2))
}

// cpuSample is the machine's cumulative CPU time from /proc/stat, in
// clock ticks: all of it and the part stolen by the hypervisor.
type cpuSample struct{ total, steal float64 }

func readCPU() cpuSample {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuSample{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	var s cpuSample
	for i, f := range strings.Fields(line)[1:] {
		var v float64
		fmt.Sscan(f, &v)
		s.total += v
		if i == 7 { // user nice system idle iowait irq softirq steal
			s.steal = v
		}
	}
	return s
}

// stealShare is the share of the machine's CPU time the hypervisor
// stole between two samples: a host fact that explains slow runs.
func stealShare(a, b cpuSample) float64 {
	if b.total <= a.total {
		return 0
	}
	return (b.steal - a.steal) / (b.total - a.total)
}

func (o options) path(parts ...string) string {
	return filepath.Join(append([]string{o.work}, parts...)...)
}

func hostNote(args []string) string {
	return fmt.Sprintf("host nproc=%d go=%s tarmd_flags=%q", runtime.NumCPU(), runtime.Version(), strings.Join(args, " "))
}

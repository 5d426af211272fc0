// Command perfbench is coherencesim's end-to-end benchmark. It drives
// the simulator only through the public functions of its internal
// modules (experiments, runner, service, store, fleet) and times what a
// user waits for: regenerating the paper's figures in-process, serving
// a seeded job mix from coherenced's real HTTP handler, and streaming
// warm-forked points through the fleet coordinator.
//
//	perfbench --workload figures --seed 1 --seconds 10 --trace 0
//	perfbench --steady 10 --seconds 10        # steadiness check
//
// Each run does a fixed amount of work derived from --seconds, and the
// seed only orders and assigns that work, so the simulated work counts
// are identical on every run. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 they
// are the per-layer ones, folded from spans and a CPU profile (see
// README.md). run.sh builds the binary and passes --workdir.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workloads maps each workload name to its driver.
var workloads = map[string]func(h *harness) error{
	"figures":      runFigures,
	"service-mix":  runServiceMix,
	"fleet-stream": runFleetStream,
}

// workloadOrder is the order the steadiness command runs them in.
var workloadOrder = []string{"figures", "service-mix", "fleet-stream"}

// setupReps is how many times each workload repeats its set-up; setup_s
// is the median.
const setupReps = 15

// setupRep times one set-up repetition. A collection first gives every
// repetition the same heap to allocate from.
func (h *harness) setupRep(name string, fn func() error) error {
	runtime.GC()
	sp := h.tr.start(name, 0)
	t := time.Now()
	err := fn()
	h.setup = append(h.setup, time.Since(t).Seconds())
	h.tr.finish(sp)
	return err
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// harness carries one run's configuration and measurements. Workload
// drivers fill it; main turns it into the result line.
type harness struct {
	workload string
	seed     uint64
	seconds  int
	traced   bool
	workers  int // nproc: simulations and client connections in flight
	workdir  string
	tr       *tracer // nil when untraced

	// Measurements.
	setup     []float64 // seconds per set-up repetition
	wall, cpu float64
	maxRSSMB  float64
	gcCPU     float64
	ops       int       // operations completed in the timed phase
	latMS     []float64 // per-operation latency, ms
	simCycles uint64    // simulated cycles executed in the timed phase
	attempted int
	failed    int
	problems  []string          // failed checks, for stderr
	counts    map[string]uint64 // work counts, identical on every run
	layer     map[string]float64

	t0       time.Time
	cpu0     float64
	gc0      float64
	profPath string
	profFile *os.File
}

// fail records a failed check.
func (h *harness) fail(format string, args ...any) {
	h.problems = append(h.problems, fmt.Sprintf(format, args...))
}

// beginTimed starts the timed phase (and, traced, the CPU profile).
func (h *harness) beginTimed() error {
	runtime.GC()
	if h.traced {
		f, err := os.Create(h.profPath)
		if err != nil {
			return fmt.Errorf("create cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("start cpu profile: %w", err)
		}
		h.profFile = f
	}
	h.cpu0 = processCPU()
	h.gc0 = gcCPU()
	h.t0 = time.Now()
	return nil
}

// endTimed ends the timed phase.
func (h *harness) endTimed() error {
	h.wall = time.Since(h.t0).Seconds()
	h.cpu = processCPU() - h.cpu0
	h.gcCPU = gcCPU() - h.gc0
	h.maxRSSMB = maxRSSMB()
	if h.profFile != nil {
		pprof.StopCPUProfile()
		err := h.profFile.Close()
		h.profFile = nil
		if err != nil {
			return fmt.Errorf("close cpu profile: %w", err)
		}
	}
	return nil
}

func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// gcCPU reads the runtime's cumulative GC CPU estimate.
func gcCPU() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// quantile returns the q-quantile of vs by linear interpolation.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

// endToEnd builds the untraced metrics.
func (h *harness) endToEnd() map[string]metric {
	return map[string]metric{
		"setup_s":            {median(h.setup), "s"},
		"wall_s":             {h.wall, "s"},
		"cpu_s":              {h.cpu, "s"},
		"ops_per_s":          {float64(h.ops) / h.wall, "ops/s"},
		"sim_cycles_per_s":   {float64(h.simCycles) / h.wall, "cycles/s"},
		"max_rss_mb":         {h.maxRSSMB, "MB"},
		"job_latency_p50_ms": {quantile(h.latMS, 0.5), "ms"},
		"job_latency_p90_ms": {quantile(h.latMS, 0.9), "ms"},
	}
}

// hostBlock describes the machine a run measured on.
func hostBlock(h *harness) map[string]any {
	return map[string]any{
		"workload":   h.workload,
		"seed":       h.seed,
		"seconds":    h.seconds,
		"cpus":       runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpuModel(),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func printJSON(prefix string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return
	}
	fmt.Println(prefix + string(b))
}

func main() {
	wl := flag.String("workload", "", "workload: figures, service-mix or fleet-stream")
	seed := flag.Uint64("seed", 1, "input generator seed")
	seconds := flag.Int("seconds", 10, "target length of the timed phase; sets the amount of work")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	workdir := flag.String("workdir", ".bench_build/perfbench", "directory for data dirs, profiles and traces")
	baseline := flag.Float64("baseline-wall", 0, "traced run: untraced wall_s median to report overhead against (0 = measure one untraced run)")
	steady := flag.Int("steady", 0, "steadiness check: run every workload this many times (seeds 1..n)")
	flag.Parse()

	if *steady > 0 {
		os.Exit(runSteady(*steady, *seconds, *workdir))
	}
	drive, ok := workloads[*wl]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload figures|service-mix|fleet-stream, --seconds >= 1 and --trace 0|1")
		os.Exit(2)
	}
	h := &harness{
		workload: *wl, seed: *seed, seconds: *seconds, traced: *trace == 1,
		workers: runtime.NumCPU(), workdir: *workdir,
		counts: map[string]uint64{}, layer: map[string]float64{},
	}
	if h.workers > runtime.GOMAXPROCS(0) {
		h.workers = runtime.GOMAXPROCS(0)
	}
	if err := os.MkdirAll(h.workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	traceDir := filepath.Join(h.workdir, fmt.Sprintf("trace-%s-seed%d", h.workload, h.seed))
	var baseWall float64
	if h.traced {
		baseWall = *baseline
		if baseWall <= 0 {
			w, err := untracedWall(h)
			if err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: untraced reference run:", err)
				os.Exit(1)
			}
			baseWall = w
		}
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		h.tr = newTracer(fmt.Sprintf("%s-seed%d-pid%d", h.workload, h.seed, os.Getpid()))
		h.profPath = filepath.Join(traceDir, "cpu.pprof")
	}

	printJSON("host: ", hostBlock(h))
	err := drive(h)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, p := range h.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	printJSON("counts: ", h.counts)

	res := result{
		Correct:   h.failed == 0 && len(h.problems) == 0 && h.attempted > 0,
		Attempted: h.attempted,
		Failed:    h.failed,
	}
	if h.traced {
		layers, err := h.perLayer(baseWall)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		if err := writeTraceFiles(traceDir, layers, h.tr); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "perfbench: traced output in %s\n", traceDir)
		res.Metrics = layers
	} else {
		res.Metrics = h.endToEnd()
	}
	printJSON("", res)
}

// untracedWall runs this workload once untraced in a fresh process and
// returns its wall_s, the base of the traced run's overhead ratio.
func untracedWall(h *harness) (float64, error) {
	r, err := runChild(h.workdir, h.workload, h.seed, h.seconds, 0, 0)
	if err != nil {
		return 0, err
	}
	m, ok := r.res.Metrics["wall_s"]
	if !ok {
		return 0, fmt.Errorf("child printed no wall_s")
	}
	return m.Value, nil
}

// childRun is one benchmark subprocess's parsed output.
type childRun struct {
	res    result
	counts map[string]uint64
}

// runChild runs the benchmark binary once as a fresh process and
// parses its last line and its counts line.
func runChild(workdir, wl string, seed uint64, seconds, trace int, baseWall float64) (childRun, error) {
	self, err := os.Executable()
	if err != nil {
		return childRun{}, err
	}
	args := []string{
		"--workdir", workdir, "--workload", wl,
		"--seed", strconv.FormatUint(seed, 10), "--seconds", strconv.Itoa(seconds),
		"--trace", strconv.Itoa(trace),
	}
	if baseWall > 0 {
		args = append(args, "--baseline-wall", strconv.FormatFloat(baseWall, 'g', -1, 64))
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return childRun{}, fmt.Errorf("%s seed %d: %w", wl, seed, err)
	}
	var cr childRun
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	for _, l := range lines {
		if c, ok := strings.CutPrefix(l, "counts: "); ok {
			if err := json.Unmarshal([]byte(c), &cr.counts); err != nil {
				return childRun{}, fmt.Errorf("parse counts: %w", err)
			}
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &cr.res); err != nil {
		return childRun{}, fmt.Errorf("parse result: %w", err)
	}
	return cr, nil
}

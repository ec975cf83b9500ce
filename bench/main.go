// Command bench is the repository's end-to-end benchmark: it starts
// sketchd daemons (and a sketchgw gateway for cluster workloads) as
// separate processes on loopback, drives each workload from one
// generator process with an open-loop and a closed-loop phase, checks
// every answer against the generator's ground truth, and prints every
// metric by name and unit. README.md describes the workloads and the
// metrics; bench/run.sh builds everything and runs it:
//
//	bash bench/run.sh -seed 1                       # all four workloads
//	bash bench/run.sh -workload cluster-dup -seed 3 -seconds 20 -trace 1
//	bash bench/run.sh -compare 'a/*.json' 'b/*.json'
//
// It writes one results file per run and ends its output with one JSON
// line: correct, attempted, failed, and the end-to-end metrics of
// BENCHMARK.json (the per-layer ones with -trace 1). It exits 1 when any
// answer check fails.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workloadSlack is how long one workload may take beyond its measured
// seconds (input generation, set-ups, drain, replays) before the run is
// abandoned as hung.
const workloadSlack = 2 * time.Minute

// contractFile lists the metrics the final line carries and the bound of
// each end-to-end metric; the benchmark runs from the repository root.
const contractFile = "BENCHMARK.json"

type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type contract struct {
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

func loadContract(path string) (*contract, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

// report is the results file of one run.
type report struct {
	NumCPU     int       `json:"num_cpu"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	GoVersion  string    `json:"go_version"`
	Seed       uint64    `json:"seed"`
	Seconds    float64   `json:"seconds"`
	Traced     bool      `json:"traced"`
	Workloads  []*result `json:"workloads"`
}

// bool01 is a boolean flag that takes its value as a separate argument
// ("-trace 1"), unlike flag.Bool.
type bool01 bool

func (b *bool01) String() string { return strconv.FormatBool(bool(*b)) }

func (b *bool01) Set(s string) error {
	v, err := strconv.ParseBool(s)
	*b = bool01(v)
	return err
}

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "run only this workload (default: all)")
		seed    = flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		secs    = flag.Int("seconds", 24, "measured seconds per workload, split 60/40 between the open- and closed-loop phases (halved between two passes with -trace 1)")
		bin     = flag.String("bin", ".bench_build/bin", "directory holding the sketchd and sketchgw binaries")
		out     = flag.String("out", "", "results file (default .bench_build/results/<workload>-seed<N>[-trace].json)")
		compare = flag.Bool("compare", false, "compare two sets of results files given as two glob arguments")
		traced  bool01
	)
	flag.Var(&traced, "trace", "1 adds a traced pass, the layer replays and the per-layer metrics")
	flag.Parse()
	log := func(format string, args ...any) { fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...) }

	ctr, err := loadContract(contractFile)
	if err != nil {
		log("%v", err)
		return 1
	}
	if *compare {
		if flag.NArg() != 2 {
			log("-compare takes two glob arguments, got %d", flag.NArg())
			return 1
		}
		ok, err := compareRuns(os.Stdout, ctr, flag.Arg(0), flag.Arg(1))
		if err != nil {
			log("%v", err)
			return 1
		}
		if !ok {
			return 1
		}
		return 0
	}
	if flag.NArg() > 0 || *secs < 1 {
		flag.Usage()
		return 1
	}
	selected := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			log("unknown workload %q", *name)
			return 1
		}
		selected = []workload{w}
	}
	for _, tool := range []string{"sketchd", "sketchgw"} {
		if _, err := os.Stat(filepath.Join(*bin, tool)); err != nil {
			log("%v (bench/run.sh builds it)", err)
			return 1
		}
	}

	conns := min(2, runtime.NumCPU())
	runtime.GOMAXPROCS(conns)
	cfg := config{bin: *bin, seed: *seed, seconds: float64(*secs), traced: bool(traced), conns: conns}
	rep := &report{NumCPU: runtime.NumCPU(), GOMAXPROCS: conns, GoVersion: runtime.Version(), Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.traced}
	var spans *spanLog
	if cfg.traced {
		spans = newSpanLog()
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	for _, w := range selected {
		log("%s: seed %d, %d s", w.name, cfg.seed, *secs)
		wctx, cancel := context.WithTimeout(ctx, seconds(cfg.seconds)+workloadSlack)
		res, err := runWorkload(wctx, cfg, w, spans)
		cancel()
		if err != nil {
			log("%s: %v", w.name, err)
			return 1
		}
		printResult(res)
		rep.Workloads = append(rep.Workloads, res)
	}

	path := *out
	if path == "" {
		label := "all"
		if *name != "" {
			label = *name
		}
		path = filepath.Join(".bench_build", "results", fmt.Sprintf("%s-seed%d", label, cfg.seed))
		if cfg.traced {
			path += "-trace"
		}
		path += ".json"
	}
	if err := writeReport(path, rep, spans); err != nil {
		log("%v", err)
		return 1
	}
	line, err := summaryLine(ctr, rep)
	if err != nil {
		log("%v", err)
		return 1
	}
	fmt.Println(line)
	for _, r := range rep.Workloads {
		if !r.Correct {
			return 1
		}
	}
	return 0
}

// printResult prints one "workload metric value unit" line per metric,
// with the sample count, and the failures.
func printResult(r *result) {
	fmt.Printf("%s inputs distinct_groups=%d dup_share=%.4f late_share=%.4f points=%d\n",
		r.Workload, r.Inputs.DistinctGroups, r.Inputs.DupShare, r.Inputs.LateShare, r.Inputs.Points)
	for i, m := range []metrics{r.E2E, r.Layers} {
		names := make([]string, 0, len(m))
		for n := range m {
			if _, dup := r.E2E[n]; i == 0 || !dup {
				names = append(names, n)
			}
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("%s %s %.6g %s n=%d\n", r.Workload, n, m[n].Value, m[n].Unit, m[n].N)
		}
	}
	fmt.Printf("%s correct=%t attempted=%d failed=%d\n", r.Workload, r.Correct, r.Attempted, r.Failed)
	for _, e := range r.Errors {
		fmt.Printf("%s error: %s\n", r.Workload, e)
	}
}

func writeReport(path string, rep *report, spans *spanLog) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	if spans != nil {
		return spans.write(strings.TrimSuffix(path, ".json") + ".spans.jsonl")
	}
	return nil
}

// summaryLine is the last line of the output: the end-to-end metrics of
// the contract, or its per-layer ones for a traced run, keyed
// "<workload>.<metric>" when more than one workload ran.
func summaryLine(ctr *contract, rep *report) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	sum := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	want := ctr.EndToEnd
	if rep.Traced {
		want = ctr.PerLayer
	}
	for _, r := range rep.Workloads {
		sum.Correct = sum.Correct && r.Correct
		sum.Attempted += r.Attempted
		sum.Failed += r.Failed
		have := r.E2E
		if rep.Traced {
			have = r.Layers
		}
		for _, c := range want {
			m, ok := have[c.Name]
			if !ok {
				return "", fmt.Errorf("%s: no %s metric %q", r.Workload, contractFile, c.Name)
			}
			key := c.Name
			if len(rep.Workloads) > 1 {
				key = r.Workload + "." + c.Name
			}
			sum.Metrics[key] = value{m.Value, m.Unit}
		}
	}
	b, err := json.Marshal(sum)
	if err != nil {
		return "", fmt.Errorf("encoding the summary line: %w", err)
	}
	return string(b), nil
}

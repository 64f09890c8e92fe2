// Command photodtn-bench is the repository's end-to-end benchmark. It runs
// four workloads — the simulator's Table I run at two generation rates, a
// live replay of the same inputs through 98 durable peers, and a command
// center ingesting uploads from two gateways — and prints every metric by
// name and unit after checking that the outputs are correct.
//
//	photodtn-bench [-seed N] [-seconds S] [-trace 0|1] [-out FILE]
//	photodtn-bench -workload NAME [-seed N] [-seconds S] [-trace 0|1] [-out FILE] [-spans FILE]
//	photodtn-bench [-benchmark BENCHMARK.json] -compare BASE.json NEW.json
//
// Without -workload each workload runs in a child process of its own, so
// memory high-water marks and collector state do not leak between them.
// With -workload the last line of standard output is one JSON object:
// correct, attempted, failed, and the metrics of the run (end-to-end ones
// untraced, per-layer ones with -trace 1). See README.md.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"photodtn/internal/obs"
)

// workloads are the benchmark's input sets, in run order. README.md says
// why each was chosen and which layers it loads.
var workloads = []*workload{
	// The paper's headline simulation: capture and eviction are a third of
	// the run, selection most of the rest.
	simWorkload("sim-table1", 250),
	// Fig. 8's low end: selection is nearly all of the run, so a change to
	// capture alone must not move it.
	simWorkload("sim-fig8-50ph", 50),
	replayWorkload(),
	ingestWorkload(),
}

func findWorkload(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// goldenSeed is the run seed whose unit digests goldens.json pins.
const goldenSeed = 1

//go:embed goldens.json
var goldensJSON []byte

// goldens maps a workload to the digests of its units at goldenSeed.
var goldens = func() map[string][]string {
	var g map[string][]string
	if err := json.Unmarshal(goldensJSON, &g); err != nil {
		panic(fmt.Sprintf("goldens.json: %v", err))
	}
	return g
}()

// golden returns the pinned digest of unit i, if the run has one.
func golden(name string, rc runConfig, i int) (string, bool) {
	if rc.seed != goldenSeed || rc.small {
		return "", false
	}
	g := goldens[name]
	if i >= len(g) {
		return "", false
	}
	return g[i], true
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "photodtn-bench:", err)
		os.Exit(1)
	}
}

// errIncorrect reports a run whose outputs failed a check; its result has
// been printed.
var errIncorrect = errors.New("outputs failed their correctness checks")

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("photodtn-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run one workload (default: all, each in a child process)")
	seed := fs.Int64("seed", goldenSeed, "seed every workload input derives from")
	seconds := fs.Float64("seconds", 20, "how long each workload measures")
	trace := fs.Int("trace", 0, "1: run traced and report per-layer metrics instead of end-to-end ones")
	out := fs.String("out", "", "append the full result (samples, digests, environment) as JSON to this file")
	spans := fs.String("spans", "", "with -trace 1 and -workload: write the recorded spans as JSON to this file")
	stateDir := fs.String("state-dir", "", "where live peers journal (default: a temporary directory)")
	compare := fs.String("compare", "", "compare this base result file with the new one given as argument")
	benchFile := fs.String("benchmark", "BENCHMARK.json", "file holding the bounds -compare applies")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare != "" {
		if fs.NArg() != 1 {
			return errors.New("-compare BASE.json NEW.json: need exactly one new result file")
		}
		return compareFiles(*compare, fs.Arg(0), *benchFile, stdout)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", *trace)
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds %v: want a positive duration", *seconds)
	}
	rc := runConfig{workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1}
	if *name == "" {
		return runAll(rc, *out, *stateDir, stdout, stderr)
	}
	w, ok := findWorkload(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	dir, err := os.MkdirTemp(*stateDir, "photodtn-bench-")
	if err != nil {
		return fmt.Errorf("state dir: %w", err)
	}
	defer os.RemoveAll(dir)
	rc.stateDir = dir
	res, err := measure(w, rc)
	if err != nil {
		return err
	}
	printSummary(stderr, res)
	if *out != "" {
		res.Env = newEnvironment(args, rc, dir)
		if err := writeResults(*out, []*result{res}); err != nil {
			return err
		}
	}
	if *spans != "" && rc.trace {
		if err := writeSpans(*spans, res.spans); err != nil {
			return err
		}
	}
	if err := printLastLine(stdout, res); err != nil {
		return err
	}
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

// printLastLine prints the one-line JSON result.
func printLastLine(w io.Writer, res *result) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, make(map[string]value, len(res.Metrics))}
	for k, m := range res.Metrics {
		line.Metrics[k] = value{m.Value, m.Unit}
	}
	buf, err := json.Marshal(line)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", buf)
	return err
}

// printSummary prints a run's metrics with their sample counts.
func printSummary(w io.Writer, res *result) {
	mode := "untraced"
	if res.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "%s seed %d, %s, %d units: correct=%v attempted=%d failed=%d\n",
		res.Workload, res.Seed, mode, res.Units, res.Correct, res.Attempted, res.Failed)
	for _, e := range res.Errors {
		fmt.Fprintf(w, "  error: %s\n", e)
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := res.Metrics[k]
		extra := ""
		if m.Percentile != 0 {
			extra = fmt.Sprintf(", p%g", m.Percentile)
		}
		fmt.Fprintf(w, "  %-40s %14.6g %-6s (n=%d%s)\n", k, m.Value, m.Unit, m.Samples, extra)
	}
}

// runAll runs every workload in a child process of its own and prints one
// table of their metrics.
func runAll(rc runConfig, out, stateDir string, stdout, stderr io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locate own binary: %w", err)
	}
	tmp, err := os.MkdirTemp(stateDir, "photodtn-bench-")
	if err != nil {
		return fmt.Errorf("scratch dir: %w", err)
	}
	defer os.RemoveAll(tmp)
	var results []*result
	var failed []string
	for _, w := range workloads {
		file := filepath.Join(tmp, w.name+".json")
		args := []string{"-workload", w.name, "-seed", fmt.Sprint(rc.seed),
			"-seconds", fmt.Sprint(rc.seconds), "-trace", fmt.Sprint(btoi(rc.trace)),
			"-out", file, "-state-dir", tmp}
		cmd := exec.Command(self, args...)
		cmd.Stdout = io.Discard
		cmd.Stderr = stderr
		if err := cmd.Run(); err != nil {
			failed = append(failed, fmt.Sprintf("%s: %v", w.name, err))
		}
		rs, err := readResults(file)
		if err != nil {
			failed = append(failed, fmt.Sprintf("%s: %v", w.name, err))
			continue
		}
		results = append(results, rs...)
	}
	printTable(stdout, results)
	if out != "" {
		if err := writeResults(out, results); err != nil {
			return err
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("workloads failed: %s", strings.Join(failed, "; "))
	}
	return nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// printTable prints one row per metric and one column per workload.
func printTable(w io.Writer, results []*result) {
	defs := endToEnd
	if len(results) > 0 && results[0].Trace {
		defs = perLayer
	}
	fmt.Fprintf(w, "%-40s %-6s", "metric", "unit")
	for _, r := range results {
		fmt.Fprintf(w, " %16s", r.Workload)
	}
	fmt.Fprintln(w)
	for _, d := range defs {
		fmt.Fprintf(w, "%-40s %-6s", d.name, d.unit)
		for _, r := range results {
			fmt.Fprintf(w, " %16.6g", r.Metrics[d.name].Value)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-40s %-6s", "correct (attempted/failed)", "")
	for _, r := range results {
		fmt.Fprintf(w, " %16s", fmt.Sprintf("%v %d/%d", r.Correct, r.Attempted, r.Failed))
	}
	fmt.Fprintln(w)
}

// resultFile is what -out writes.
type resultFile struct {
	Results []*result `json:"results"`
}

// writeResults appends results to the file's list, creating it if needed,
// so that repeated runs with one -out collect passes for -compare.
func writeResults(path string, rs []*result) error {
	old, err := readResults(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	buf, err := json.MarshalIndent(resultFile{Results: append(old, rs...)}, "", "  ")
	if err != nil {
		return fmt.Errorf("encode results: %w", err)
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return fmt.Errorf("write results: %w", err)
	}
	return nil
}

func readResults(path string) ([]*result, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read results: %w", err)
	}
	var f resultFile
	if err := json.Unmarshal(buf, &f); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return f.Results, nil
}

// environment records where a result was measured. fsync-bound numbers
// depend on the state directory's filesystem.
type environment struct {
	obs.Manifest
	NProc    int    `json:"nproc"`
	CPUModel string `json:"cpu_model"`
	StateFS  string `json:"state_fs"`
}

func newEnvironment(args []string, rc runConfig, stateDir string) *environment {
	config := fmt.Sprintf("workload=%s seconds=%g trace=%v", rc.workload, rc.seconds, rc.trace)
	return &environment{
		Manifest: obs.NewManifest("photodtn-bench", args, config, rc.seed, 0),
		NProc:    runtime.NumCPU(),
		CPUModel: cpuModel(),
		StateFS:  fsType(stateDir),
	}
}

// Command livebench is the live task-path benchmark: it runs the
// deployable server in-process (wire.Serve or wire.ServeDurable over
// core.Server over the engine, with reactd's production defaults), drives
// it from one open-loop load generator, checks every task's outcome, and
// prints the end-to-end metrics; with -trace 1 it also runs a traced pass
// of the same inputs and prints the per-layer metrics and the tracing
// overhead. DESIGN.md records why each workload and metric exists.
//
//	bash _livebench/run.sh --workload steady --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. The lines before it are
// the human report: configuration, environment, every metric with its
// unit and percentile sample count.
//
// The directory name starts with "_" so the repository's own tooling
// (go ./... patterns and reactlint's module walk) leaves the benchmark
// out of the program it measures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: steady, heavy or overload")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "length of the offered-load window, seconds")
	trace := flag.Int("trace", 0, "1: also run a traced pass and report per-layer metrics")
	out := flag.String("out", filepath.Join(".bench_build", "livebench"), "directory for journal dirs and span files")
	flag.Parse()

	sp, ok := lookupSpec(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "livebench: need --workload steady|heavy|overload, --seconds > 0 and --trace 0|1")
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	tmp := filepath.Join(*out, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "livebench: %v\n", err)
		return 1
	}
	conns := min(runtime.NumCPU(), 2)
	in := generate(sp, conns, *seconds, *seed)

	// Plain maps and structs of strings and numbers always marshal.
	cfg, _ := json.Marshal(sp.config(conns))
	envJSON, _ := json.Marshal(readEnv())
	fmt.Printf("livebench workload=%s seed=%d seconds=%g trace=%d warmup_tasks=%d measured_tasks=%d\n", sp.name, *seed, *seconds, *trace, in.warm, len(in.jobs)-in.warm)
	fmt.Printf("config %s\nenv %s\n", cfg, envJSON)

	base, err := runPass(sp, in, *seconds, false, tmp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "livebench: %v\n", err)
		return 1
	}
	a := analyze(base)
	report("e2e", a.e2e)
	fmt.Printf("setup_runs_s %.6f\n", base.setupTimes)
	if base.rssLifetime {
		fmt.Println("max_rss_mb is the process-lifetime peak: /proc/self/clear_refs could not reset it")
	}
	final := a
	metrics := a.e2e

	if *trace == 1 {
		tp, err := runPass(sp, in, *seconds, true, tmp)
		if err != nil {
			fmt.Fprintf(os.Stderr, "livebench: traced pass: %v\n", err)
			return 1
		}
		t := analyze(tp)
		for i, m := range t.e2e {
			fmt.Printf("overhead %-22s %+12.4f %s (traced %.4f, untraced %.4f)\n", m.name, m.value-a.e2e[i].value, m.unit, m.value, a.e2e[i].value)
		}
		layers := make([]string, 0, len(t.selfMs))
		for l := range t.selfMs {
			layers = append(layers, l)
		}
		sort.Strings(layers)
		for _, l := range layers {
			fmt.Printf("self %-10s %10.4f ms/task\n", l, t.selfMs[l])
		}
		for _, m := range t.e2e {
			if m.name == "result_p50_ms" {
				fmt.Printf("stages sum p50 %.4f ms against result_p50_ms %.4f ms (traced; residual bound %.1f ms)\n",
					t.stageSumP50, m.value, ms(residualBound))
			}
		}
		report("layer", t.layer)
		path := filepath.Join(*out, fmt.Sprintf("spans-%s-seed%d.csv", sp.name, *seed))
		if err := writeSpans(path, t.spans, tp.start); err != nil {
			fmt.Fprintf(os.Stderr, "livebench: %v\n", err)
			return 1
		}
		fmt.Printf("spans %d written to %s\n", len(t.spans), path)
		// The traced pass must pass the same checks; its failures count.
		final = &analysis{
			verdict:   verdict{unresolved: a.verdict.unresolved + t.verdict.unresolved, violations: append(a.verdict.violations, t.verdict.violations...)},
			attempted: a.attempted + t.attempted,
			failed:    a.failed + t.failed,
			invalid:   append(a.invalid, t.invalid...),
		}
		metrics = t.layer
	}

	fmt.Printf("error_frac %.6f (%d failed of %d attempted, %d unresolved tasks)\n",
		final.errorFrac(), final.failed, final.attempted, final.verdict.unresolved)
	for i, v := range final.verdict.violations {
		if i == 20 {
			fmt.Printf("violation ... and %d more\n", len(final.verdict.violations)-i)
			break
		}
		fmt.Printf("violation %s\n", v)
	}
	for _, why := range final.invalid {
		fmt.Printf("invalid %s\n", why)
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: final.failed == 0 && len(final.invalid) == 0, Attempted: final.attempted, Failed: final.failed, Metrics: map[string]value{}}
	// An invalid run reports no numbers: they would describe the load
	// generator falling behind, not the server.
	if len(final.invalid) == 0 {
		for _, m := range metrics {
			if *trace == 0 && reportOnly[m.name] {
				continue
			}
			res.Metrics[m.name] = value{m.value, m.unit}
		}
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// reportOnly are end-to-end metrics printed on every run but left out of
// the gated result; DESIGN.md gives the measured spreads. error_frac is 0
// on every correct run and travels as attempted/failed. The submit-ack
// percentiles time a sub-millisecond reply whose run-to-run spread is
// wider than any bound the benchmark could hold. The p99s of assignment
// and result sit on rare events — a journal compaction stall on heavy,
// the ≈1 % of steady's completions that finish past every deadline — and
// jump from run to run; the p95s next to them are gated instead.
var reportOnly = map[string]bool{
	"error_frac":        true,
	"submit_ack_p50_ms": true,
	"submit_ack_p99_ms": true,
	"assign_p99_ms":     true,
	"result_p99_ms":     true,
}

func report(kind string, ms []metric) {
	for _, m := range ms {
		extra := ""
		if m.n > 0 {
			extra = fmt.Sprintf("n=%d", m.n)
			if m.short {
				extra += fmt.Sprintf(" (fewer than %d samples beyond)", minBeyond)
			}
		}
		fmt.Printf("%s %-32s %14.4f %-5s %s\n", kind, m.name, m.value, m.unit, extra)
	}
}

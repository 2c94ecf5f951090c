// Command benchmark is the repository's one benchmark: four workloads over
// the whole ladder (rrr -> wavelet -> fmindex -> core -> fpga model -> served
// job -> gateway), every output checked for correctness, every metric printed
// by name. See README.md in this directory.
//
//	go run ./benchmark                       all workloads, untraced
//	go run ./benchmark -trace                all workloads, untraced then traced
//	go run ./benchmark -workload exact-ecoli -seed 7 -seconds 8 -trace 0
//	go run ./benchmark -compare old.jsonl new.jsonl
//	go run ./benchmark -manifest             print BENCHMARK.json
//
// With -workload the last line of standard output is the JSON object the
// benchmark driver reads.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// normalizeArgs lets the boolean -trace also take the driver's "--trace 0|1"
// form, which the flag package would read as a flag plus a positional.
func normalizeArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) {
			switch args[i+1] {
			case "0", "1", "true", "false":
				out = append(out, "-trace="+args[i+1])
				i++
				continue
			}
		}
		out = append(out, a)
	}
	return out
}

func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "", "run one workload and end with the driver's JSON line (default: all four)")
	seed := fs.Int64("seed", pinnedSeed, "workload seed; inputs are a function of it alone")
	seconds := fs.Float64("seconds", 0, "measuring time of a run (default 8, smoke 0.2)")
	trace := fs.Bool("trace", false, "traced run: spans around every call into a layer, per-layer metrics, trace-<workload>.json")
	scale := fs.String("scale", scaleFull, "full or smoke (100 kbp reference, 2 000 reads, 8 jobs)")
	out := fs.String("out", "", "directory for traces, results.jsonl and scratch files (default .bench_build/benchmark under the repository root)")
	compare := fs.Bool("compare", false, "compare two results files: -compare old.jsonl new.jsonl")
	printManifest := fs.Bool("manifest", false, "print BENCHMARK.json as spec.go declares it")
	if err := fs.Parse(normalizeArgs(args)); err != nil {
		return 2
	}
	switch {
	case *printManifest:
		data, err := manifest()
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		os.Stdout.Write(data)
		return 0
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare takes two results files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1))
	}
	if *scale != scaleFull && *scale != scaleSmoke {
		fmt.Fprintf(os.Stderr, "benchmark: -scale must be %s or %s\n", scaleFull, scaleSmoke)
		return 2
	}
	if *seconds <= 0 {
		*seconds = runSeconds
		if *scale == scaleSmoke {
			*seconds = 0.2
		}
	}
	root, err := repoRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if *out == "" {
		*out = filepath.Join(root, ".bench_build", "benchmark")
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}

	names := []string{*workload}
	if *workload == "" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	}
	// All workloads with -trace: the untraced run gives the end-to-end
	// numbers, the traced one the layers. One workload: the driver's form,
	// one run in the mode -trace names.
	modes := []bool{*trace}
	if *workload == "" && *trace {
		modes = []bool{false, true}
	}
	status := 0
	var last *result
	for _, name := range names {
		for _, traced := range modes {
			cfg := runConfig{workload: name, seed: *seed, seconds: *seconds, traced: traced, scale: *scale, root: root, outDir: *out}
			res, err := runWorkload(cfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
				return 1
			}
			if traced {
				res.print(tierGated, tierLayer)
			} else {
				res.print(tierEndToEnd, tierGated)
			}
			if err := res.appendTo(filepath.Join(*out, "results.jsonl")); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			if res.Failed > 0 || res.Attempted == 0 {
				status = 1
			}
			last = res
		}
	}
	if *workload != "" {
		fmt.Println(last.driverLine())
	}
	return status
}

func runWorkload(cfg runConfig) (*result, error) {
	switch cfg.workload {
	case wlExactChr21, wlExactEcoli:
		return runExact(cfg)
	case wlMemPE:
		return runMemPE(cfg)
	case wlServed:
		return runServed(cfg)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(names, ", "))
}

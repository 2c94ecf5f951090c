package main

import (
	"bytes"
	"strings"
	"testing"
)

// tinyArgs shrink everything so the full suite runs in seconds.
var tinyArgs = []string{"-ref-scale", "0.002", "-read-scale", "0.0002", "-sample", "500", "-quiet"}

func TestBenchAll(t *testing.T) {
	var out bytes.Buffer
	if err := run(append(append([]string{}, tinyArgs...), "all"), &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		"Fig. 5", "Fig. 6", "Fig. 7",
		"Table I", "Table II",
		"BWaveR FPGA", "Bowtie2-like 16t",
		"E.Coli", "Human Chr.21",
		"GOMAXPROCS", "paper speed-up", "70.40x", "0.74x",
		"Ablation — prefix table", "Ablation — locate structures",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestBenchSingleExperiments(t *testing.T) {
	for _, target := range []string{"fig5", "fig6", "fig7", "table1", "table2"} {
		var out bytes.Buffer
		if err := run(append(append([]string{}, tinyArgs...), target), &out); err != nil {
			t.Fatalf("%s: %v", target, err)
		}
		if out.Len() == 0 {
			t.Errorf("%s produced no output", target)
		}
	}
	// fig5 must not print fig6's table and vice versa.
	var out bytes.Buffer
	if err := run(append(append([]string{}, tinyArgs...), "fig5"), &out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "Fig. 6") {
		t.Error("fig5 printed fig6 output")
	}
}

func TestBenchErrors(t *testing.T) {
	cases := [][]string{
		{},
		{"unknown-experiment"},
		{"-ref-scale", "0", "fig5"},
		{"-read-scale", "9", "table1"},
		{"-sample", "1", "table1"},
		{"fig5", "fig6"},
		// The per-PR sweeps and their knobs are gone; `go run ./benchmark`
		// reports those quantities as per-layer metrics.
		{"ftab"}, {"mem"}, {"qc"},
		{"-json", "out.json", "fig5"},
		{"-csv", "out", "fig5"},
		{"-ftab-ks", "0,8", "ablate"},
		{"-mem-baseline", "old.json", "ablate"},
	}
	for _, args := range cases {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
}

package main

import (
	"fmt"
	"runtime"
	"strconv"

	"commtm"
	_ "commtm/internal/experiments" // fills the harness registry
	"commtm/internal/harness"
	"commtm/internal/sweep"
	"commtm/internal/workloads/apps"
	"commtm/internal/workloads/micro"
)

// refSeed is the --seed at which outputs are compared with the recorded
// references in refDir. Paths are relative to the checkout's root.
const (
	refSeed    = 1
	refDir     = "perfbench/ref"
	goldenPath = "testdata/golden_conformance.json"
)

// goldenSeeds are the cell seeds of testdata/golden_conformance.json. The
// cells workload runs them in every run, so every run checks the goldens.
var goldenSeeds = []uint64{1, 42}

// workload describes one benchmark workload. Why each exists, and why its
// sizes, thread counts and worker counts were chosen, is recorded in
// STEADINESS.md.
type workload struct {
	name string
	// probes is how many extra fresh processes are started, and killed once
	// their first cell has started, to sample set-up time.
	probes int
	// minPasses is the least number of measured passes in a run.
	minPasses int
}

var workloads = []workload{
	// paper is the north-star invocation, run through the CLI's own code
	// path: commtm-bench -exp all -scale 1 -parallel 0.
	{name: "paper", probes: 2, minPasses: 1},
	// commute runs only CommTM and CommTM w/o gather cells of the workloads
	// built on commutative updates, so labeled operations, U-state
	// reductions, gathers and splits dominate and aborts are rare. Threads
	// stop at 32: larger machines made runs memory-bound and noisy.
	{name: "commute", probes: 10, minPasses: 2},
	// cells is the differential-conformance matrix at the golden scale over
	// many seeds: thousands of ~1 ms cells, where per-cell install, finish
	// and emit costs show.
	{name: "cells", probes: 10, minPasses: 2},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Sizes of the commute and cells workloads, chosen so one pass takes
// several seconds on two cores (see STEADINESS.md).
const (
	commuteSeeds    = 6
	commuteRefcount = 60000
	commuteList     = 60000
	cellsSeeds      = 200
	goldenScale     = 0.25
)

var commuteThreads = []int{8, 16, 32}

// workers is the host worker count of every engine run: at most two, and
// never more than the host's cores.
func workers() int { return min(2, runtime.NumCPU()) }

// deriveSeeds expands the run's seed into n cell seeds (splitmix64,
// truncated to 32 bits so cell keys stay readable; never zero).
func deriveSeeds(seed uint64, n int) []uint64 {
	out := make([]uint64, n)
	x := seed
	for i := range out {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		z = (z ^ z>>31) >> 32
		if z == 0 {
			z = 1
		}
		out[i] = z
	}
	return out
}

// paperArgs is the CLI invocation of the paper workload.
func paperArgs(seed uint64, jsonPath string) []string {
	return []string{"-exp", "all", "-scale", "1", "-parallel", "0",
		"-seed", strconv.FormatUint(seed, 10), "-json", jsonPath}
}

// engineCells expands the cells of the commute or cells workload.
func engineCells(name string, seed uint64) ([]sweep.Cell, error) {
	var cells []sweep.Cell
	add := func(c sweep.Cell) {
		c.Index = len(cells)
		cells = append(cells, c)
	}
	switch name {
	case "commute":
		variants := []sweep.Variant{harness.VarCommTM, harness.VarCommTMNoGather}
		for _, s := range deriveSeeds(seed, commuteSeeds) {
			for _, spec := range commuteSpecs(s) {
				for _, th := range commuteThreads {
					for _, v := range variants {
						add(sweep.Cell{Workload: spec.Name, Variant: v, Threads: th, Seed: s, Mk: spec.Mk})
					}
				}
			}
		}
	case "cells":
		m, ok := harness.GetMatrix("conformance")
		if !ok {
			return nil, fmt.Errorf("matrix %q is not registered", "conformance")
		}
		o := harness.DefaultOptions()
		o.Scale = goldenScale
		// The registered matrix fixes its seeds; its cells for one seed are
		// the template re-seeded below. The micro workloads draw all their
		// randomness from the machine seed, so the cell seed is the input.
		var template []sweep.Cell
		all := m.Cells(o)
		for _, c := range all {
			if c.Seed == all[0].Seed {
				template = append(template, c)
			}
		}
		seeds := append(append([]uint64{}, goldenSeeds...), deriveSeeds(seed, cellsSeeds-len(goldenSeeds))...)
		for _, s := range seeds {
			for _, c := range template {
				c.Seed = s
				add(c)
			}
		}
	default:
		return nil, fmt.Errorf("workload %q does not run on the engine", name)
	}
	return cells, nil
}

// commuteSpecs builds the commute workload's specs for one cell seed: the
// paper's gather-dependent micro workloads and the applications whose
// shared updates commute, at the paper experiments' application sizes.
func commuteSpecs(seed uint64) []sweep.WorkloadSpec {
	spec := func(name string, mk func() sweep.Workload) sweep.WorkloadSpec {
		return sweep.WorkloadSpec{Name: name, Mk: mk}
	}
	return []sweep.WorkloadSpec{
		spec(micro.RefcountName, func() sweep.Workload { return micro.NewRefcount(commuteRefcount, 16) }),
		spec(micro.ListMixedName, func() sweep.Workload { return micro.NewList(commuteList, 0.5) }),
		spec(apps.BoruvkaName, func() sweep.Workload { return apps.NewBoruvka(48, 48, 0.7, seed) }),
		spec(apps.SSCA2Name, func() sweep.Workload { return apps.NewSSCA2(14, 24576, seed) }),
		spec(apps.GenomeName, func() sweep.Workload { return apps.NewGenome(512, 32, 32768, seed) }),
		spec(apps.KMeansName, func() sweep.Workload { return apps.NewKMeans(4096, 8, 12, 3, seed) }),
	}
}

// paperCells captures the distinct cells of the paper workload by running
// every experiment of `commtm-bench -exp all` in-process through the
// harness registry with a sink that records each result's cell.
func paperCells(seed uint64) ([]sweep.Cell, error) {
	o := harness.DefaultOptions()
	o.Seed = seed
	o.Workers = workers()
	capture := &captureSink{seen: map[string]bool{}}
	o.Sinks = []sweep.Sink{capture}
	for _, id := range harness.IDs() {
		if id == "conformance" { // not part of -exp all
			continue
		}
		e, _ := harness.Get(id)
		if _, err := e.Run(o); err != nil {
			return nil, fmt.Errorf("capture %s: %w", id, err)
		}
	}
	return capture.cells, nil
}

// captureSink records the first cell seen under each key.
type captureSink struct {
	seen  map[string]bool
	cells []sweep.Cell
}

func (s *captureSink) Emit(r sweep.Result) error {
	if k := r.Key(); !s.seen[k] {
		s.seen[k] = true
		c := r.Cell
		c.Index = len(s.cells)
		s.cells = append(s.cells, c)
	}
	return nil
}

func (s *captureSink) Close() error { return nil }

// configKey is a cell's machine configuration with the seed erased: cells
// with equal keys can share one machine through ResetSeed.
func configKey(c sweep.Cell) commtm.Config {
	cfg := c.Config()
	cfg.Seed = 0
	return cfg
}

package main

import (
	"context"
	"os"
	"path/filepath"
	"runtime/pprof"
	"testing"
	"time"
)

func TestLayerOfFunc(t *testing.T) {
	for fn, want := range map[string]string{
		"commtm/internal/memsys.(*MemSys).Access":      "memsys",
		"commtm/internal/cache.(*Cache).Lookup":        "cache",
		"commtm/internal/engine.(*Kernel).Run.func1":   "engine",
		"commtm/internal/mem.(*Store).Read64":          "mem",
		"commtm/internal/memsys/sub.helper":            "other",
		"runtime.mallocgc":                             "runtime",
		"internal/runtime/atomic.(*Uint32).Load":       "runtime",
		"iter.Pull[...].func1":                         "runtime",
		"commtm.(*Thread).Load":                        "other",
		"commtm/internal/workloads/micro.(*List).Body": "other",
	} {
		if got := layerOfFunc(fn); got != want {
			t.Errorf("layerOfFunc(%q) = %q, want %q", fn, got, want)
		}
	}
}

var burnSink uint64

func burn(d time.Duration) {
	x := uint64(1)
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1e5; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	burnSink += x
}

func TestCPUSharesCountOnlyLabeledSamples(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Fatal(err)
	}
	pprof.Do(context.Background(), simulateLabels, func(context.Context) { burn(300 * time.Millisecond) })
	burn(100 * time.Millisecond)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	p, err := readProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	shares, cpu := p.cpuShares("layer", "simulate")
	if cpu <= 0 || cpu > 1 {
		t.Fatalf("labeled CPU %gs, want within (0, 1]", cpu)
	}
	var sum float64
	for _, l := range shareLayers {
		sum += shares[l]
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("shares sum to %g: %v", sum, shares)
	}
	if shares["other"] < 0.5 { // burn is in this package
		t.Errorf("burn's package got share %g: %v", shares["other"], shares)
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	if _, err := parseProfile([]byte{0x0a, 0xff}); err == nil {
		t.Error("a truncated message was accepted")
	}
}

package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"commtm"
	"commtm/internal/sweep"
)

// rowsFD is the file descriptor on which a measured process writes its
// result rows as JSON lines (the CLI opens it as -json /dev/fd/3).
const rowsFD = 3

// hostMetrics mirrors the field names of the CLI's {"host_metrics": ...}
// JSON line, so one reader serves both kinds of measured process.
type hostMetrics struct {
	Exp          string            `json:"exp"`
	WallMS       int64             `json:"wall_ms"`
	AllocBytes   uint64            `json:"host_alloc_bytes"`
	GCCycles     uint32            `json:"host_gc_cycles"`
	HeapSysBytes uint64            `json:"host_heap_sys_bytes"`
	Lifecycle    *sweep.RunMetrics `json:"lifecycle"`
}

// runEngineChild is the measured process of the commute and cells
// workloads: it streams every cell's row to rowsFD through the engine's
// JSONL sink, then one host-metrics line.
func runEngineChild(name string, seed uint64) error {
	cells, err := engineCells(name, seed)
	if err != nil {
		return err
	}
	out := os.NewFile(rowsFD, "rows")
	defer out.Close()
	rm := &sweep.RunMetrics{}
	eng := &sweep.Engine{Workers: workers(), Sinks: []sweep.Sink{sweep.NewJSONL(out)}, Metrics: rm}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	if _, err := eng.Run(cells); err != nil {
		return err
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	hm := hostMetrics{
		Exp:          name,
		WallMS:       wall.Milliseconds(),
		AllocBytes:   after.TotalAlloc - before.TotalAlloc,
		GCCycles:     after.NumGC - before.NumGC,
		HeapSysBytes: after.HeapSys,
		Lifecycle:    rm,
	}
	return json.NewEncoder(out).Encode(map[string]hostMetrics{"host_metrics": hm})
}

// Files a replay process writes into its output directory.
const (
	replayRowsFile  = "replay.jsonl"
	replaySpansFile = "spans.jsonl"
	replayCPUFile   = "cpu.pprof"
)

// runReplayChild is the traced process: it replays the workload's distinct
// cells one at a time through the public calls of each layer, recording one
// span per call, under a CPU profile whose simulate samples carry a pprof
// label. No input, snapshot or machine-pool cache is used; a machine is
// reused through ResetSeed only while consecutive cells share its
// configuration, and closed when the configuration changes.
func runReplayChild(name string, seed uint64, dir string) error {
	var cells []sweep.Cell
	var err error
	if name == "paper" {
		cells, err = paperCells(seed)
	} else {
		cells, err = engineCells(name, seed)
	}
	if err != nil {
		return err
	}
	cells = replayOrder(cells)

	rowsF, err := os.Create(filepath.Join(dir, replayRowsFile))
	if err != nil {
		return err
	}
	defer rowsF.Close()
	rowsW := bufio.NewWriter(rowsF)
	sink := sweep.NewJSONL(rowsW)
	profF, err := os.Create(filepath.Join(dir, replayCPUFile))
	if err != nil {
		return err
	}
	defer profF.Close()

	tr := newTracer()
	if err := pprof.StartCPUProfile(profF); err != nil {
		return err
	}
	root := tr.begin("trace", -1, -1)
	var m *commtm.Machine
	var mKey commtm.Config
	for i, c := range cells {
		m = replayCell(tr, root, i, c, m, &mKey, sink)
	}
	if m != nil {
		sp := tr.begin("install.close", root, -1)
		m.Close()
		tr.end(sp)
	}
	sp := tr.begin("emit.flush", root, -1)
	err = rowsW.Flush()
	tr.end(sp)
	tr.end(root)
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	if err := rowsF.Close(); err != nil {
		return err
	}
	if err := profF.Close(); err != nil {
		return err
	}
	return tr.write(filepath.Join(dir, replaySpansFile))
}

// replayOrder keeps one cell per key and groups cells by machine
// configuration, in order of each configuration's first cell, so
// consecutive cells can share a machine.
func replayOrder(cells []sweep.Cell) []sweep.Cell {
	seen := map[string]bool{}
	first := map[commtm.Config]int{}
	var out []sweep.Cell
	for _, c := range cells {
		if seen[c.Key()] {
			continue
		}
		seen[c.Key()] = true
		if _, ok := first[configKey(c)]; !ok {
			first[configKey(c)] = len(first)
		}
		out = append(out, c)
	}
	sort.SliceStable(out, func(a, b int) bool { return first[configKey(out[a])] < first[configKey(out[b])] })
	for i := range out {
		out[i].Index = i
	}
	return out
}

// simulateLabels marks CPU-profile samples taken inside Machine.Run.
var simulateLabels = pprof.Labels("layer", "simulate")

// replayCell runs one cell under spans and returns the machine to carry to
// the next cell (nil when this cell's machine was discarded).
func replayCell(tr *tracer, root, id int, c sweep.Cell, m *commtm.Machine, mKey *commtm.Config, sink sweep.Sink) (next *commtm.Machine) {
	cellSpan := tr.begin("cell", root, id)
	start := time.Now()
	res := sweep.Result{Cell: c}
	defer func() {
		if r := recover(); r != nil {
			res.Err = fmt.Sprintf("panic: %v", r)
		}
		tr.closeAbove(cellSpan) // spans a panic left open
		if res.Err != "" && m != nil {
			// A machine that failed mid-cell is not trusted for reuse.
			m.Close()
			next = nil
		}
		res.WallNS = time.Since(start).Nanoseconds()
		sp := tr.begin("emit", cellSpan, id)
		if err := sink.Emit(res); err != nil && res.Err == "" {
			res.Err = err.Error()
		}
		tr.end(sp)
		tr.end(cellSpan)
	}()

	sp := tr.begin("install.mk", cellSpan, id)
	w := c.Mk()
	tr.end(sp)
	if m != nil && *mKey == configKey(c) {
		sp = tr.begin("install.reset", cellSpan, id)
		m.ResetSeed(c.Seed)
		tr.end(sp)
	} else {
		if m != nil {
			sp = tr.begin("install.close", cellSpan, id)
			m.Close()
			tr.end(sp)
		}
		sp = tr.begin("install.new", cellSpan, id)
		m = commtm.New(c.Config())
		tr.end(sp)
		*mKey = configKey(c)
	}
	next = m
	sp = tr.begin("install.setup", cellSpan, id)
	w.Setup(m)
	tr.end(sp)
	sp = tr.begin("simulate.run", cellSpan, id)
	pprof.Do(context.Background(), simulateLabels, func(context.Context) { m.Run(w.Body) })
	tr.end(sp)
	sp = tr.begin("finish.stats", cellSpan, id)
	res.Stats = m.Stats()
	tr.end(sp)
	sp = tr.begin("finish.validate", cellSpan, id)
	err := w.Validate(m)
	tr.end(sp)
	if err != nil {
		res.Err = err.Error()
		return next
	}
	sp = tr.begin("finish.digest", cellSpan, id)
	var d uint64
	if dg, ok := w.(sweep.Digester); ok {
		d = dg.DigestState(m)
	} else {
		d = m.MemDigest()
	}
	tr.end(sp)
	res.Digest = fmt.Sprintf("%016x", d)
	return next
}

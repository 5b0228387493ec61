// Command perfbench is the repository's benchmark: it measures one named
// workload of the CommTM simulator end to end, checks every cell's output,
// and with -trace 1 explains the numbers per layer.
//
// It is built and run by run.sh from the root of a checkout:
//
//	bash perfbench/run.sh --workload paper --seed 1 --seconds 20 --trace 0
//
// Each measured pass, and each set-up probe, is a fresh process: the CLI
// (commtm-bench -exp all -scale 1 -parallel 0) for the paper workload, this
// binary's engine child for the others. Result rows stream back as JSON
// lines on file descriptor 3. End-to-end metrics are medians over the
// passes of one run; passes repeat until the next would overrun --seconds.
// The last line of standard output is the JSON result; progress goes to
// standard error. STEADINESS.md records how steady the metrics are and why
// the workloads look the way they do.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// runDeadline bounds a whole run; past it every child group is killed and
// the run fails.
const runDeadline = 170 * time.Second

type metricDef struct{ name, unit string }

// endToEnd are the metrics a run reports with -trace 0.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
	{"sim_minstr_per_s", "Minstr/s"},
}

// perLayer are the metrics a run reports with -trace 1.
var perLayer = []metricDef{
	{"sweep.cells_run", "count"},
	{"sweep.cells_unique", "count"},
	{"sweep.dup_cell_s", "s"},
	{"sweep.cell_s", "s"},
	{"sweep.idle_s", "s"},
	{"sweep.unrowed_s", "s"},
	{"sweep.cell_ms.p50", "ms"},
	{"sweep.cell_ms.p90", "ms"},
	{"lifecycle.machines_built", "count"},
	{"lifecycle.machine_reuses", "count"},
	{"lifecycle.snapshot_hits", "count"},
	{"lifecycle.snapshot_misses", "count"},
	{"lifecycle.snapshot_hit_ratio", "ratio"},
	{"lifecycle.input_hits", "count"},
	{"lifecycle.input_misses", "count"},
	{"lifecycle.cow_page_copies", "count"},
	{"host.alloc_mb", "MB"},
	{"host.gc_cycles", "count"},
	{"host.heap_sys_mb", "MB"},
	{"host.calib_s", "s"},
	{"install.new_s", "s"},
	{"install.reset_s", "s"},
	{"install.workload_setup_s", "s"},
	{"install.mk_s", "s"},
	{"simulate.s", "s"},
	{"simulate.ns_per_instr", "ns"},
	{"simulate.cpu_share.engine", "ratio"},
	{"simulate.cpu_share.core", "ratio"},
	{"simulate.cpu_share.memsys", "ratio"},
	{"simulate.cpu_share.cache", "ratio"},
	{"simulate.cpu_share.noc", "ratio"},
	{"simulate.cpu_share.mem", "ratio"},
	{"simulate.cpu_share.runtime", "ratio"},
	{"simulate.cpu_share.other", "ratio"},
	{"finish.validate_s", "s"},
	{"finish.digest_s", "s"},
	{"emit.s", "s"},
	{"core.instructions", "count"},
	{"core.commits", "count"},
	{"core.aborts", "count"},
	{"core.abort_ratio", "ratio"},
	{"memsys.gets", "count"},
	{"memsys.getx", "count"},
	{"memsys.getu", "count"},
	{"memsys.reductions", "count"},
	{"memsys.gathers", "count"},
	{"memsys.nacks", "count"},
	{"engine.sim_cycles", "count"},
	{"trace.wall_s", "s"},
}

// lifecycleFields maps lifecycle metrics to RunMetrics JSON field names.
var lifecycleFields = map[string]string{
	"lifecycle.machines_built":  "machines_built",
	"lifecycle.machine_reuses":  "machine_reuses",
	"lifecycle.snapshot_hits":   "snapshot_hits",
	"lifecycle.snapshot_misses": "snapshot_misses",
	"lifecycle.input_hits":      "input_hits",
	"lifecycle.input_misses":    "input_misses",
	"lifecycle.cow_page_copies": "cow_page_copies",
}

// modelFields maps exact model counts to commtm.Stats JSON field names.
var modelFields = map[string]string{
	"core.instructions": "Instructions",
	"core.commits":      "Commits",
	"core.aborts":       "Aborts",
	"memsys.gets":       "GETS",
	"memsys.getx":       "GETX",
	"memsys.getu":       "GETU",
	"memsys.reductions": "Reductions",
	"memsys.gathers":    "Gathers",
	"memsys.nacks":      "NACKs",
	"engine.sim_cycles": "Cycles",
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		if err := childMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(benchMain(os.Args[1:]))
}

func childMain(args []string) error {
	if len(args) == 0 {
		return errors.New("missing child mode")
	}
	fs := flag.NewFlagSet("child "+args[0], flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 0, "run seed")
	out := fs.String("out", "", "replay output directory")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	switch args[0] {
	case "run":
		return runEngineChild(*name, *seed)
	case "replay":
		return runReplayChild(*name, *seed, *out)
	}
	return fmt.Errorf("unknown child mode %q", args[0])
}

// bench is one benchmark run.
type bench struct {
	w        workload
	seed     uint64
	seconds  float64
	trace    bool
	cli      string // commtm-bench binary
	self     string // this binary
	tmp      string // scratch directory for replay outputs
	writeRef bool

	attempted, failed int
	notes             []string
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: paper, commute or cells")
	seed := fs.Uint64("seed", refSeed, "input seed")
	seconds := fs.Int("seconds", 20, "measurement budget in seconds")
	trace := fs.Int("trace", 0, "1 = report per-layer metrics from a traced replay")
	cli := fs.String("cli", "", "path of the built commtm-bench binary")
	tmp := fs.String("tmp", "", "scratch directory inside the checkout")
	writeRef := fs.Bool("write-ref", false, "record this run's outputs as the references (reference seed only)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || *cli == "" || *tmp == "" {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload paper|commute|cells --seed N --seconds S --trace 0|1 -cli PATH -tmp DIR")
		return 2
	}
	if *writeRef && *seed != refSeed {
		fmt.Fprintf(os.Stderr, "-write-ref needs --seed %d\n", refSeed)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := becomeSubreaper(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: cannot reap orphaned descendants:", err)
		return 1
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runDeadline)
	defer cancel()

	b := &bench{w: w, seed: *seed, seconds: float64(*seconds), trace: *trace == 1,
		cli: *cli, self: self, tmp: *tmp, writeRef: *writeRef}
	res, err := b.run(ctx)
	if err == nil && ctx.Err() != nil {
		err = ctx.Err()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	const maxNotes = 50
	for i, n := range b.notes {
		if i == maxNotes {
			fmt.Fprintf(os.Stderr, "... and %d more failures\n", len(b.notes)-maxNotes)
			break
		}
		fmt.Fprintln(os.Stderr, "FAILED", n)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// pass is one measured process.
type pass struct {
	wall, cpu, rssMB float64
	setup            float64 // NaN when no row arrived
	rows             []row
	hosts            []map[string]any
	unrowedS         float64 // wall of experiments that emitted no rows
	stdout, stderr   []byte
	err              error
}

func (b *bench) argv() (string, []string) {
	if b.w.name == "paper" {
		return b.cli, paperArgs(b.seed, fmt.Sprintf("/dev/fd/%d", rowsFD))
	}
	return b.self, []string{"child", "run", "-workload", b.w.name, "-seed", strconv.FormatUint(b.seed, 10)}
}

// runProcess runs one fresh measured process. A probe is killed, with its
// whole process group, as soon as its first row arrives.
func (b *bench) runProcess(ctx context.Context, probe bool) (*pass, error) {
	pctx, cancel := context.WithCancel(ctx)
	defer cancel()
	name, args := b.argv()
	cmd := groupCommand(pctx, name, args...)
	pr, pw, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	cmd.ExtraFiles = []*os.File{pw} // becomes rowsFD
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	p := &pass{setup: math.NaN()}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		pr.Close()
		pw.Close()
		return nil, err
	}
	pw.Close()
	var firstAt time.Time
	readDone := make(chan error, 1)
	go func() {
		defer pr.Close()
		sc := bufio.NewScanner(pr)
		sc.Buffer(make([]byte, 64<<10), 16<<20)
		rowsSinceHost := 0
		for sc.Scan() {
			now := time.Now()
			r, host, err := parseLine(sc.Bytes())
			if err != nil {
				readDone <- fmt.Errorf("row stream: %w", err)
				return
			}
			if host != nil {
				p.hosts = append(p.hosts, host)
				if ms, ok := num(host, "wall_ms"); ok && rowsSinceHost == 0 {
					p.unrowedS += ms / 1e3
				}
				rowsSinceHost = 0
				continue
			}
			if len(p.rows) == 0 {
				firstAt = now
				if probe {
					cancel()
				}
			}
			p.rows = append(p.rows, r)
			rowsSinceHost++
		}
		readDone <- sc.Err()
	}()
	exited, werr := waitGroup(cmd)
	var rerr error
	select {
	case rerr = <-readDone:
	case <-time.After(5 * time.Second):
		// Something outside the group still holds the pipe open; closing
		// the read end unblocks the reader.
		pr.Close()
		rerr = errors.Join(errors.New("row stream still open after the process exited"), <-readDone)
	}
	p.wall = exited.Sub(t0).Seconds()
	p.stdout, p.stderr = stdout.Bytes(), stderr.Bytes()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		p.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
		p.rssMB = float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
	}
	if len(p.rows) > 0 {
		p.setup = firstAt.Sub(t0).Seconds() - float64(p.rows[0].WallNS)/1e9
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	if !probe {
		p.err = errors.Join(werr, rerr)
	} else if len(p.rows) == 0 {
		p.err = errors.Join(errors.New("probe ended before its first row"), werr, rerr)
	}
	return p, nil
}

func (b *bench) fail(n int, note string) {
	b.failed += n
	b.notes = append(b.notes, note)
}

func (b *bench) run(ctx context.Context) (*result, error) {
	calib := calibrate()
	fmt.Fprintf(os.Stderr, "workload=%s seed=%d calib_s=%.6f\n", b.w.name, b.seed, calib)

	refs, err := b.references()
	if err != nil {
		return nil, err
	}
	var setups []float64
	for i := 0; i < b.w.probes; i++ {
		p, err := b.runProcess(ctx, true)
		if err != nil {
			return nil, err
		}
		if p.err != nil {
			b.attempted++
			b.fail(1, fmt.Sprintf("set-up probe: %v\n%s", p.err, p.stderr))
			continue
		}
		setups = append(setups, p.setup)
	}

	var passes []*pass
	var walls []float64
	start := time.Now()
	for {
		p, err := b.runProcess(ctx, false)
		if err != nil {
			return nil, err
		}
		b.checkPass(p, refs)
		passes = append(passes, p)
		if p.err != nil {
			break
		}
		walls = append(walls, p.wall)
		if !math.IsNaN(p.setup) {
			setups = append(setups, p.setup)
		}
		fmt.Fprintf(os.Stderr, "pass %d: wall_s=%.3f cpu_s=%.3f rss_mb=%.1f setup_s=%.4f rows=%d\n",
			len(passes), p.wall, p.cpu, p.rssMB, p.setup, len(p.rows))
		if len(passes) >= b.w.minPasses && (b.trace || time.Since(start).Seconds()+median(walls) > b.seconds) {
			break // a traced run needs the untraced counters once; its time goes to the replay
		}
	}
	if b.writeRef {
		if err := b.writeReferences(passes[0]); err != nil {
			return nil, err
		}
	}

	res := &result{Metrics: map[string]metricValue{}}
	if !b.trace {
		per := make([]map[string]float64, 0, len(passes))
		for _, p := range passes {
			if p.err == nil {
				per = append(per, map[string]float64{
					"wall_s": p.wall, "cpu_s": p.cpu, "peak_rss_mb": p.rssMB,
					"sim_minstr_per_s": sumStat(distinct(p.rows), "Instructions") / 1e6 / p.wall,
				})
			}
		}
		for k, v := range medians(per) {
			res.put(endToEnd, k, v)
		}
		if len(setups) > 0 {
			res.put(endToEnd, "setup_s", median(setups))
		}
	} else {
		if err := b.traceRun(ctx, passes, calib, res); err != nil {
			return nil, err
		}
	}
	res.Attempted, res.Failed = b.attempted, b.failed
	want := endToEnd
	if b.trace {
		want = perLayer
	}
	res.Correct = b.failed == 0 && b.attempted > 0
	for _, d := range want {
		if _, ok := res.Metrics[d.name]; !ok {
			fmt.Fprintln(os.Stderr, "absent metric:", d.name)
		}
	}
	return res, nil
}

// put records a metric under its declared unit.
func (r *result) put(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.name == name {
			r.Metrics[name] = metricValue{Value: v, Unit: d.unit}
			return
		}
	}
	panic("perfbench: undeclared metric " + name)
}

// medians takes, for every metric present in all the maps, the median of
// its values.
func medians(ms []map[string]float64) map[string]float64 {
	out := map[string]float64{}
	if len(ms) == 0 {
		return out
	}
	for k := range ms[0] {
		var xs []float64
		for _, m := range ms {
			if v, ok := m[k]; ok {
				xs = append(xs, v)
			}
		}
		if len(xs) == len(ms) {
			out[k] = median(xs)
		}
	}
	return out
}

// references loads the recorded results this run must reproduce: the
// golden conformance cells for the cells workload, and at the reference
// seed the recorded rows of the paper and commute workloads.
func (b *bench) references() (map[string]refRow, error) {
	switch {
	case b.writeRef:
		return nil, nil
	case b.w.name == "cells":
		return readGolden(goldenPath)
	case b.seed == refSeed:
		return readRefRows(filepath.Join(refDir, b.w.name+".jsonl"))
	}
	return nil, nil
}

// checkPass counts one measured pass's cells and failures.
func (b *bench) checkPass(p *pass, refs map[string]refRow) {
	failed, missing, notes := check(p.rows, refs)
	b.attempted += len(p.rows) + missing
	b.failed += failed
	b.notes = append(b.notes, notes...)
	if p.err != nil {
		b.attempted++
		b.fail(1, fmt.Sprintf("measured process: %v\n%s", p.err, p.stderr))
	}
	if b.w.name == "paper" && b.seed == refSeed && !b.writeRef {
		want, err := os.ReadFile(filepath.Join(refDir, "paper.txt"))
		if err != nil {
			b.attempted++
			b.fail(1, "paper text reference: "+err.Error())
			return
		}
		if n := textMismatches(renderedText(p.stdout), string(want)); n > 0 {
			b.attempted++
			b.fail(n, fmt.Sprintf("rendered paper text differs from the reference at %d lines", n))
		}
	}
}

func (b *bench) writeReferences(p *pass) error {
	if b.failed > 0 {
		return errors.New("not recording references from a run with failed cells")
	}
	if b.w.name == "cells" {
		return nil // the golden conformance file is the reference
	}
	if err := writeRefRows(filepath.Join(refDir, b.w.name+".jsonl"), p.rows); err != nil {
		return err
	}
	if b.w.name == "paper" {
		return os.WriteFile(filepath.Join(refDir, "paper.txt"), []byte(renderedText(p.stdout)), 0o644)
	}
	return nil
}

// layerMetrics derives the per-layer metrics of one untraced pass from its
// rows and host-metrics lines. Counters are read by JSON field name; a
// field that is missing leaves its metric absent.
func layerMetrics(p *pass, workers int) map[string]float64 {
	m := map[string]float64{}
	var cellMS []float64
	var cellS, dupS float64
	seen := map[string]bool{}
	for _, r := range p.rows {
		s := float64(r.WallNS) / 1e9
		cellS += s
		cellMS = append(cellMS, s*1e3)
		if seen[r.Key()] {
			dupS += s
		}
		seen[r.Key()] = true
	}
	m["sweep.cells_run"] = float64(len(p.rows))
	m["sweep.cells_unique"] = float64(len(seen))
	m["sweep.dup_cell_s"] = dupS
	m["sweep.cell_s"] = cellS
	m["sweep.idle_s"] = float64(workers)*p.wall - cellS
	m["sweep.unrowed_s"] = p.unrowedS
	if v, ok := percentile(cellMS, 50); ok {
		m["sweep.cell_ms.p50"] = v
	}
	if v, ok := percentile(cellMS, 90); ok {
		m["sweep.cell_ms.p90"] = v
	}

	sum := func(path ...string) (float64, bool) {
		var s float64
		for _, h := range p.hosts {
			v, ok := num(h, path...)
			if !ok {
				return 0, false
			}
			s += v
		}
		return s, len(p.hosts) > 0
	}
	for metric, field := range lifecycleFields {
		if v, ok := sum("lifecycle", field); ok {
			m[metric] = v
		}
	}
	hits, okH := m["lifecycle.snapshot_hits"]
	misses, okM := m["lifecycle.snapshot_misses"]
	if okH && okM && hits+misses > 0 {
		m["lifecycle.snapshot_hit_ratio"] = hits / (hits + misses)
	} else if okH && okM {
		m["lifecycle.snapshot_hit_ratio"] = 0
	}
	if v, ok := sum("host_alloc_bytes"); ok {
		m["host.alloc_mb"] = v / (1 << 20)
	}
	if v, ok := sum("host_gc_cycles"); ok {
		m["host.gc_cycles"] = v
	}
	heap, okHeap := 0.0, len(p.hosts) > 0
	for _, h := range p.hosts {
		v, ok := num(h, "host_heap_sys_bytes")
		okHeap = okHeap && ok
		heap = max(heap, v)
	}
	if okHeap {
		m["host.heap_sys_mb"] = heap / (1 << 20)
	}
	return m
}

// modelCounts sums the exact simulated counts over distinct cells.
func modelCounts(rows []row) map[string]float64 {
	d := distinct(rows)
	m := map[string]float64{}
	for metric, field := range modelFields {
		m[metric] = sumStat(d, field)
	}
	if n := m["core.commits"] + m["core.aborts"]; n > 0 {
		m["core.abort_ratio"] = m["core.aborts"] / n
	} else {
		m["core.abort_ratio"] = 0
	}
	return m
}

// traceRun replays the workload's distinct cells in a traced process,
// checks that the replay reproduces the untraced cells exactly, and fills
// in the per-layer metrics.
func (b *bench) traceRun(ctx context.Context, passes []*pass, calib float64, res *result) error {
	var ok []*pass
	for _, p := range passes {
		if p.err == nil {
			ok = append(ok, p)
		}
	}
	if len(ok) == 0 {
		b.fail(1, "no untraced pass completed; nothing to trace")
		return nil
	}
	workers := workers()
	if b.w.name == "paper" {
		workers = runtime.NumCPU() // -parallel 0
	}
	per := make([]map[string]float64, 0, len(ok))
	for _, p := range ok {
		per = append(per, layerMetrics(p, workers))
	}
	for k, v := range medians(per) {
		res.put(perLayer, k, v)
	}
	for k, v := range modelCounts(ok[0].rows) {
		res.put(perLayer, k, v)
	}
	res.put(perLayer, "host.calib_s", calib)

	if err := os.MkdirAll(b.tmp, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(b.tmp, "replay-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cmd := groupCommand(ctx, b.self, "child", "replay", "-workload", b.w.name,
		"-seed", strconv.FormatUint(b.seed, 10), "-out", dir)
	var stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stderr, &stderr
	if err := cmd.Start(); err != nil {
		return err
	}
	_, werr := waitGroup(cmd)
	if ctx.Err() != nil {
		return ctx.Err()
	}
	if werr != nil {
		b.attempted++
		b.fail(1, fmt.Sprintf("traced replay: %v\n%s", werr, stderr.Bytes()))
		return nil
	}
	replay, err := readRows(filepath.Join(dir, replayRowsFile))
	if err != nil {
		return err
	}
	b.checkReplay(replay, ok[0].rows)

	spans, err := readSpans(filepath.Join(dir, replaySpansFile))
	if err != nil {
		return err
	}
	self, err := selfTimes(spans)
	if err != nil {
		return err
	}
	wall := float64(spans[0].End-spans[0].Start) / 1e9
	var selfSum float64
	for _, s := range self {
		selfSum += float64(s) / 1e9
	}
	if math.Abs(selfSum-wall) > wall/10 {
		b.fail(1, fmt.Sprintf("span self times sum to %.3fs, trace wall is %.3fs", selfSum, wall))
	}
	by := selfByName(spans, self)
	res.put(perLayer, "trace.wall_s", wall)
	res.put(perLayer, "install.new_s", by["install.new"])
	res.put(perLayer, "install.reset_s", by["install.reset"])
	res.put(perLayer, "install.workload_setup_s", by["install.setup"])
	res.put(perLayer, "install.mk_s", by["install.mk"])
	res.put(perLayer, "simulate.s", by["simulate.run"])
	if instr := sumStat(replay, "Instructions"); instr > 0 {
		res.put(perLayer, "simulate.ns_per_instr", by["simulate.run"]*1e9/instr)
	}
	res.put(perLayer, "finish.validate_s", by["finish.validate"])
	res.put(perLayer, "finish.digest_s", by["finish.digest"])
	res.put(perLayer, "emit.s", by["emit"]+by["emit.flush"])

	prof, err := readProfile(filepath.Join(dir, replayCPUFile))
	if err != nil {
		return err
	}
	shares, _ := prof.cpuShares("layer", "simulate")
	for _, l := range shareLayers {
		res.put(perLayer, "simulate.cpu_share."+l, shares[l])
	}
	summarizeSpans(spans, self, wall)
	return nil
}

// checkReplay requires the replay to reproduce every distinct untraced
// cell's statistics and digest exactly, and nothing else.
func (b *bench) checkReplay(replay, untraced []row) {
	want := map[string]row{}
	for _, r := range distinct(untraced) {
		want[r.Key()] = r
	}
	b.attempted += len(replay)
	got := map[string]bool{}
	for _, r := range replay {
		k := r.Key()
		got[k] = true
		u, ok := want[k]
		switch {
		case r.Err != "":
			b.fail(1, k+": replay: "+r.Err)
		case !ok:
			b.fail(1, k+": replayed cell did not run untraced")
		case !(refRow{Stats: u.Stats, Digest: u.Digest}.matches(r) && refRow{Stats: r.Stats, Digest: r.Digest}.matches(u)):
			b.fail(1, k+": replay differs from the untraced run")
		}
	}
	for k := range want {
		if !got[k] {
			b.attempted++
			b.fail(1, k+": untraced cell was not replayed")
		}
	}
}

// summarizeSpans prints self time per span name to standard error.
func summarizeSpans(spans []span, self []int64, wall float64) {
	by := selfByName(spans, self)
	names := make([]string, 0, len(by))
	for n := range by {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return by[names[i]] > by[names[j]] })
	fmt.Fprintf(os.Stderr, "trace: %d spans over %.3fs\n", len(spans), wall)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-16s %9.3fs %6.1f%%\n", n, by[n], 100*by[n]/wall)
	}
}

var calibSink uint64

// calibrate times a fixed integer kernel (median of five), so drift of the
// host can be told apart from a regression of the program.
func calibrate() float64 {
	var ts []float64
	for r := 0; r < 5; r++ {
		t := time.Now()
		x := uint64(r + 1)
		for i := 0; i < 20_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		calibSink += x
		ts = append(ts, time.Since(t).Seconds())
	}
	return median(ts)
}

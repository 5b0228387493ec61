package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func mustRow(t *testing.T, line string) row {
	t.Helper()
	r, host, err := parseLine([]byte(line))
	if err != nil || host != nil {
		t.Fatalf("parseLine(%s) = %v, %v", line, host, err)
	}
	return r
}

func mustHost(t *testing.T, line string) map[string]any {
	t.Helper()
	_, host, err := parseLine([]byte(line))
	if err != nil || host == nil {
		t.Fatalf("parseLine(%s) = %v, %v", line, host, err)
	}
	return host
}

const rowA = `{"index":0,"workload":"counter","variant":{"label":"CommTM"},"threads":8,"seed":1,"stats":{"Cycles":100,"Instructions":40,"Commits":3,"Aborts":1},"digest":"aa","wall_ns":2000000}`

func TestCountersAreReadByJSONName(t *testing.T) {
	p := &pass{
		wall: 1,
		rows: []row{mustRow(t, rowA), mustRow(t, rowA)},
		hosts: []map[string]any{
			// An older or newer producer: no snapshot counters, an extra field.
			mustHost(t, `{"host_metrics":{"exp":"a","wall_ms":5,"host_alloc_bytes":1048576,"host_gc_cycles":2,"host_heap_sys_bytes":2097152,"lifecycle":{"machines_built":3,"machine_reuses":4,"input_hits":1,"input_misses":2,"cow_page_copies":0,"brand_new":7}}}`),
			mustHost(t, `{"host_metrics":{"exp":"b","wall_ms":5,"host_alloc_bytes":1048576,"host_gc_cycles":1,"host_heap_sys_bytes":1048576,"lifecycle":{"machines_built":1,"machine_reuses":0,"input_hits":0,"input_misses":0,"cow_page_copies":5}}}`),
		},
	}
	m := layerMetrics(p, 2)
	for name, want := range map[string]float64{
		"lifecycle.machines_built":  4,
		"lifecycle.machine_reuses":  4,
		"lifecycle.cow_page_copies": 5,
		"host.alloc_mb":             2,
		"host.gc_cycles":            3,
		"host.heap_sys_mb":          2,
		"sweep.cells_run":           2,
		"sweep.cells_unique":        1,
		"sweep.dup_cell_s":          0.002,
		"sweep.idle_s":              2 - 0.004,
	} {
		if got, ok := m[name]; !ok || got != want {
			t.Errorf("%s = %g (present %v), want %g", name, got, ok, want)
		}
	}
	for _, absent := range []string{"lifecycle.snapshot_hits", "lifecycle.snapshot_misses", "lifecycle.snapshot_hit_ratio", "sweep.cell_ms.p50"} {
		if v, ok := m[absent]; ok {
			t.Errorf("%s = %g, want absent", absent, v)
		}
	}

	// A host line missing a field makes the summed metric absent, not zero.
	p.hosts = append(p.hosts, mustHost(t, `{"host_metrics":{"exp":"c","wall_ms":1}}`))
	if v, ok := layerMetrics(p, 2)["host.alloc_mb"]; ok {
		t.Errorf("host.alloc_mb = %g with a line lacking the field, want absent", v)
	}

	r := mustRow(t, `{"workload":"x","variant":{"label":"v"},"threads":1,"seed":1,"stats":{"Cycles":5},"digest":"d"}`)
	if _, ok := r.stat("Instructions"); ok {
		t.Error("a missing statistic read as present")
	}
	if got := modelCounts([]row{r})["core.instructions"]; got != 0 {
		t.Errorf("core.instructions = %g, want 0", got)
	}
}

func TestReferenceCheckCountsMutatedRowAsFailed(t *testing.T) {
	a := mustRow(t, rowA)
	b := mustRow(t, strings.Replace(rowA, `"label":"CommTM"`, `"label":"Baseline"`, 1))
	refs := map[string]refRow{
		a.Key(): {Key: a.Key(), Stats: a.Stats, Digest: a.Digest},
		b.Key(): {Key: b.Key(), Stats: b.Stats, Digest: b.Digest},
	}
	if failed, missing, notes := check([]row{a, b}, refs); failed != 0 || missing != 0 {
		t.Fatalf("clean rows: failed %d, missing %d: %v", failed, missing, notes)
	}

	mutated := mustRow(t, strings.Replace(rowA, `"Commits":3`, `"Commits":4`, 1))
	if failed, _, _ := check([]row{mutated, b}, refs); failed != 1 {
		t.Errorf("mutated statistic: failed %d, want 1", failed)
	}
	if failed, missing, _ := check([]row{a}, refs); failed != 1 || missing != 1 {
		t.Errorf("missing reference cell: failed %d, missing %d, want 1, 1", failed, missing)
	}
	errRow := mustRow(t, strings.Replace(rowA, `"digest":"aa"`, `"digest":"aa","err":"validate: boom"`, 1))
	if failed, _, _ := check([]row{errRow}, nil); failed != 1 {
		t.Errorf("cell error: failed %d, want 1", failed)
	}
	dup := mustRow(t, strings.Replace(rowA, `"Cycles":100`, `"Cycles":101`, 1))
	if failed, _, _ := check([]row{a, dup}, nil); failed != 1 {
		t.Errorf("duplicate disagreeing with the first row: failed %d, want 1", failed)
	}
	// Statistics added after the reference was recorded are not compared.
	extra := mustRow(t, strings.Replace(rowA, `"Cycles":100`, `"Cycles":100,"NewCounter":9`, 1))
	if failed, _, notes := check([]row{extra, b}, refs); failed != 0 {
		t.Errorf("extra statistic: failed %d: %v", failed, notes)
	}
}

func TestVariantsMustAgreeOnDigest(t *testing.T) {
	a := mustRow(t, rowA)
	b := mustRow(t, strings.Replace(strings.Replace(rowA, `"label":"CommTM"`, `"label":"Baseline"`, 1), `"digest":"aa"`, `"digest":"bb"`, 1))
	if failed, _, _ := check([]row{a, b}, nil); failed != 2 {
		t.Errorf("disagreeing variants: failed %d, want 2", failed)
	}
	// Workloads without a canonical digest are exempt.
	g := func(r row) row { r.Workload = "genome"; return r }
	if failed, _, notes := check([]row{g(a), g(b)}, nil); failed != 0 {
		t.Errorf("genome variants: failed %d: %v", failed, notes)
	}
}

func TestGoldenReferencesKeyLikeCells(t *testing.T) {
	path := filepath.Join(t.TempDir(), "golden.json")
	golden := `[{"workload":"counter","variant":"CommTM","threads":8,"seed":1,"stats":{"Cycles":100,"Instructions":40,"Commits":3,"Aborts":1},"digest":"aa"},
{"workload":"counter","variant":"CommTM","threads":8,"seed":1,"geometry":{"label":"small","l1_bytes":8192},"stats":{},"digest":"zz"}]`
	if err := os.WriteFile(path, []byte(golden), 0o644); err != nil {
		t.Fatal(err)
	}
	refs, err := readGolden(path)
	if err != nil {
		t.Fatal(err)
	}
	a := mustRow(t, rowA)
	if len(refs) != 1 || !refs[a.Key()].matches(a) {
		t.Fatalf("golden refs %v do not match row %s", refs, a.Key())
	}
}

func TestRenderedTextStripsTelemetry(t *testing.T) {
	out := "# fig14: Fig. 14: top-K insertion (K=1000)\nthreads  CommTM\n" +
		"host: allocs=1 alloc_bytes=2\nlifecycle: machines_built=3\narenas: inputs{size=1} (cumulative)\n" +
		"(fig14 completed in 491ms)\n\n"
	want := "# fig14: Fig. 14: top-K insertion (K=1000)\nthreads  CommTM\n\n"
	if got := renderedText([]byte(out)); got != want {
		t.Errorf("renderedText = %q, want %q", got, want)
	}
	if n := textMismatches("a\nb\nc", "a\nx\nc\nd"); n != 2 {
		t.Errorf("textMismatches = %d, want 2", n)
	}
}

func TestRefRowsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	a := mustRow(t, rowA)
	path := filepath.Join(dir, "w.jsonl")
	if err := writeRefRows(path, []row{a, a}); err != nil {
		t.Fatal(err)
	}
	refs, err := readRefRows(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 1 || !refs[a.Key()].matches(a) {
		raw, _ := json.Marshal(refs)
		t.Fatalf("round trip gave %s", raw)
	}
}

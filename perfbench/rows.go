package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"commtm/internal/sweep"
)

// row is one result row as the engine's JSONL sink writes it. Identity
// fields decode into sweep.Cell, so keys come from Cell.Key; stats stay a
// name-to-value map, so sums and comparisons bind to JSON field names only.
type row struct {
	sweep.Cell
	Stats  map[string]json.Number `json:"stats"`
	Digest string                 `json:"digest"`
	Err    string                 `json:"err"`
	WallNS int64                  `json:"wall_ns"`
}

// stat returns the named statistic; a missing or non-integer field reads
// as absent.
func (r row) stat(name string) (uint64, bool) {
	v, ok := r.Stats[name]
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseUint(string(v), 10, 64)
	return n, err == nil
}

// sumStat sums the named statistic over rows; absent fields count as zero.
func sumStat(rows []row, name string) float64 {
	var s float64
	for _, r := range rows {
		v, _ := r.stat(name)
		s += float64(v)
	}
	return s
}

// parseLine decodes one line of a measured process's row stream: either a
// result row or a {"host_metrics": ...} object, returned as a generic map
// so its counters are read by JSON field name.
func parseLine(line []byte) (r row, host map[string]any, err error) {
	var probe struct {
		HostMetrics map[string]any `json:"host_metrics"`
	}
	if bytes.HasPrefix(line, []byte(`{"host_metrics"`)) {
		if err := json.Unmarshal(line, &probe); err != nil {
			return row{}, nil, err
		}
		return row{}, probe.HostMetrics, nil
	}
	err = json.Unmarshal(line, &r)
	return r, nil, err
}

// num reads a number from nested JSON objects by field names.
func num(obj map[string]any, path ...string) (float64, bool) {
	var cur any = obj
	for _, p := range path {
		m, ok := cur.(map[string]any)
		if !ok {
			return 0, false
		}
		if cur, ok = m[p]; !ok {
			return 0, false
		}
	}
	f, ok := cur.(float64)
	return f, ok
}

// distinct returns the first row of every key, in order.
func distinct(rows []row) []row {
	seen := map[string]bool{}
	var out []row
	for _, r := range rows {
		if k := r.Key(); !seen[k] {
			seen[k] = true
			out = append(out, r)
		}
	}
	return out
}

// refRow is a recorded reference result.
type refRow struct {
	Key    string                 `json:"key"`
	Stats  map[string]json.Number `json:"stats"`
	Digest string                 `json:"digest"`
}

// matches reports whether r reproduces the reference: every recorded
// statistic and the digest. Statistics added after the reference was
// recorded are not compared.
func (ref refRow) matches(r row) bool {
	if r.Digest != ref.Digest || r.Err != "" {
		return false
	}
	for k, v := range ref.Stats {
		if r.Stats[k] != v {
			return false
		}
	}
	return true
}

func readJSONLines(path string, fn func([]byte) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		if err := fn(sc.Bytes()); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	return sc.Err()
}

func readRows(path string) ([]row, error) {
	var rows []row
	err := readJSONLines(path, func(line []byte) error {
		r, host, err := parseLine(line)
		if err == nil && host == nil {
			rows = append(rows, r)
		}
		return err
	})
	return rows, err
}

func readRefRows(path string) (map[string]refRow, error) {
	refs := map[string]refRow{}
	err := readJSONLines(path, func(line []byte) error {
		var r refRow
		if err := json.Unmarshal(line, &r); err != nil {
			return err
		}
		refs[r.Key] = r
		return nil
	})
	return refs, err
}

// writeRefRows records the distinct rows as references, sorted by key.
func writeRefRows(path string, rows []row) error {
	rs := distinct(rows)
	sort.Slice(rs, func(i, j int) bool { return rs[i].Key() < rs[j].Key() })
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for _, r := range rs {
		if err := enc.Encode(refRow{Key: r.Key(), Stats: r.Stats, Digest: r.Digest}); err != nil {
			return err
		}
	}
	return os.WriteFile(path, b.Bytes(), 0o644)
}

// readGolden reads the default-geometry cells of the golden conformance
// file, keyed like Cell.Key.
func readGolden(path string) (map[string]refRow, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var cells []struct {
		Workload string                 `json:"workload"`
		Variant  string                 `json:"variant"`
		Threads  int                    `json:"threads"`
		Seed     uint64                 `json:"seed"`
		Geometry sweep.Geometry         `json:"geometry"`
		Stats    map[string]json.Number `json:"stats"`
		Digest   string                 `json:"digest"`
	}
	if err := json.Unmarshal(raw, &cells); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	refs := map[string]refRow{}
	for _, g := range cells {
		if !g.Geometry.IsDefault() {
			continue
		}
		k := sweep.Cell{Workload: g.Workload, Variant: sweep.Variant{Label: g.Variant}, Threads: g.Threads, Seed: g.Seed}.Key()
		refs[k] = refRow{Key: k, Stats: g.Stats, Digest: g.Digest}
	}
	return refs, nil
}

// noCanonicalDigest lists workloads whose digest is raw memory that
// depends on the schedule (hash-table layouts), so their variants are not
// required to agree.
var noCanonicalDigest = map[string]bool{"genome": true, "vacation": true}

// check counts the failed cells of one measured pass: cells that report an
// error, rows that disagree with an earlier row of the same key, variant
// groups that disagree on their canonical digest, and cells that do not
// reproduce the references (refs may be nil). Reference cells that never
// ran are returned as missing; they count as attempted and failed.
func check(rows []row, refs map[string]refRow) (failed, missing int, notes []string) {
	first := map[string]row{}
	bad := map[string]bool{}
	fail := func(k, why string) {
		if !bad[k] {
			bad[k] = true
			notes = append(notes, k+": "+why)
		}
	}
	for _, r := range rows {
		k := r.Key()
		if r.Err != "" {
			failed++
			fail(k, r.Err)
			continue
		}
		if f, ok := first[k]; ok {
			if !(refRow{Stats: f.Stats, Digest: f.Digest}).matches(r) {
				failed++
				fail(k, "differs from an earlier row of the same cell")
			}
			continue
		}
		first[k] = r
		if ref, ok := refs[k]; ok && !ref.matches(r) {
			failed++
			fail(k, "does not match the reference")
		}
	}
	groups := map[string][]row{}
	for _, r := range first {
		if noCanonicalDigest[r.Workload] {
			continue
		}
		g := fmt.Sprintf("%s/%dt/seed=%d/%s", r.Workload, r.Threads, r.Seed, r.Geometry.Label)
		groups[g] = append(groups[g], r)
	}
	for g, rs := range groups {
		for _, r := range rs[1:] {
			if r.Digest != rs[0].Digest {
				for _, r := range rs {
					if !bad[r.Key()] {
						failed++
						fail(r.Key(), "variants of "+g+" disagree on the digest")
					}
				}
				break
			}
		}
	}
	for k := range refs {
		if _, ok := first[k]; !ok && !bad[k] {
			missing++
			fail(k, "reference cell did not run")
		}
	}
	sort.Strings(notes)
	return failed + missing, missing, notes
}

// telemetryLine matches the CLI's host telemetry ("host: allocs=...") and
// timing lines, which vary from run to run.
var telemetryLine = regexp.MustCompile(`^([A-Za-z_]+:\s.*=|\(.* completed in .*\)$)`)

// renderedText strips telemetry lines from the CLI's standard output,
// leaving the rendered figures and tables.
func renderedText(out []byte) string {
	var b strings.Builder
	for _, l := range strings.SplitAfter(string(out), "\n") {
		if !telemetryLine.MatchString(strings.TrimSuffix(l, "\n")) {
			b.WriteString(l)
		}
	}
	return b.String()
}

// textMismatches counts the lines at which got differs from want.
func textMismatches(got, want string) int {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	n := 0
	for i := 0; i < max(len(g), len(w)); i++ {
		if i >= len(g) || i >= len(w) || g[i] != w[i] {
			n++
		}
	}
	return n
}

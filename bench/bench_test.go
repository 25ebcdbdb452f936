package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// testSizes keeps the schema test fast: 1 MB files, a few small files,
// two reps. The shapes of the workloads are unchanged.
var testSizes = sizes{fileBytes: 1 << 20, smallFiles: 32, machines: 2}

func TestBenchmarkJSONIsTheManifest(t *testing.T) {
	file, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got, want any
	if err := json.Unmarshal(file, &got); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if err := json.Unmarshal([]byte(manifestJSON()), &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("BENCHMARK.json differs from `bench -manifest`; regenerate it")
	}
}

func names(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.Name)
	}
	sort.Strings(out)
	return out
}

func emitted(res *result) []string {
	var out []string
	for name := range res.Metrics {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// TestSchema runs every workload through both passes at testSizes and
// checks that exactly the catalogued metrics come out, that the sums the
// catalogue promises hold, and that nothing fails.
func TestSchema(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	perLayerNames := names(perLayerDefs())
	if len(perLayerNames) > 128 {
		t.Fatalf("%d per-layer metrics, the contract allows 128", len(perLayerNames))
	}
	for _, name := range append(names(endToEndDefs), perLayerNames...) {
		if !nameRE.MatchString(name) {
			t.Errorf("metric name %q", name)
		}
	}
	ladder, err := runLadder(testSizes, 1)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, w := range workloads() {
		if !nameRE.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: bad name or why", w.name)
		}
		ps, err := runPass(&w, testSizes, 1, nil, 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		e2e := reportEndToEnd(ps)
		if got, want := emitted(e2e), names(endToEndDefs); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: end-to-end metrics %v, want %v", w.name, got, want)
		}
		for name, m := range e2e.Metrics {
			if !(m.Value > 0) {
				t.Errorf("%s: %s = %v, end-to-end metrics are never 0", w.name, name, m.Value)
			}
		}
		layers, err := tracedResult(&w, testSizes, 1, 0, 1, dir, ladder)
		if err != nil {
			t.Fatal(err)
		}
		if got := emitted(layers); !reflect.DeepEqual(got, perLayerNames) {
			t.Errorf("%s: per-layer metrics %v, want %v", w.name, got, perLayerNames)
		}
		if e2e.Failed != 0 || layers.Failed != 0 || !e2e.Correct || !layers.Correct {
			t.Errorf("%s: failed ops: %d untraced, %d traced", w.name, e2e.Failed, layers.Failed)
		}
		val := func(name string) float64 { return layers.Metrics[name].Value }

		var split float64
		for _, c := range cpuCategories {
			split += val("cpu." + c + "_ms_per_mb")
		}
		if total := e2e.Metrics["virt_cpu_ms_per_mb"].Value; math.Abs(split-total) > 0.005*total {
			t.Errorf("%s: cpu split sums to %v, virt_cpu_ms_per_mb is %v", w.name, split, total)
		}
		if parts := val("disk.seek_frac") + val("disk.rot_frac") + val("disk.xfer_frac") + val("disk.bus_frac"); parts > val("disk.busy_frac")+1e-9 {
			t.Errorf("%s: disk phases %v exceed busy %v", w.name, parts, val("disk.busy_frac"))
		}
		if val("profile.samples") > 0 {
			var shares float64
			for _, l := range hostShareLayers {
				shares += val(l + ".host_share")
			}
			if math.Abs(shares-1) > 0.01 {
				t.Errorf("%s: host shares sum to %v", w.name, shares)
			}
		}
		checkSpanFile(t, dir+"/"+w.name+".spans.jsonl", ps.refs[len(ps.refs)-1].virt.Ops) // the last machine's
	}
}

// checkSpanFile checks that the span file parses, holds one span per op
// under the root, and that every parent exists.
func checkSpanFile(t *testing.T, path string, ops int) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Error(err)
		return
	}
	defer f.Close()
	ids := map[int]bool{0: true}
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Errorf("%s: %v", path, err)
			return
		}
		ids[s.ID] = true
		spans = append(spans, s)
	}
	opSpans := 0
	for _, s := range spans {
		if !ids[s.Parent] {
			t.Errorf("%s: span %d has unknown parent %d", path, s.ID, s.Parent)
		}
		if s.VirtEnd < s.VirtStart {
			t.Errorf("%s: span %d (%s) ends before it starts", path, s.ID, s.Name)
		}
		if s.Parent == rootSpanID && s.ID != asyncSpanID {
			opSpans++
		}
	}
	if opSpans != ops {
		t.Errorf("%s: %d op spans, want %d", path, opSpans, ops)
	}
}

package scenario

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// walkFields calls visit for every exported non-struct field of the struct
// v, recursing into nested structs, with the dotted field path.
func walkFields(v reflect.Value, path string, visit func(path string, f reflect.Value)) {
	for i := 0; i < v.NumField(); i++ {
		sf := v.Type().Field(i)
		if !sf.IsExported() {
			continue
		}
		if f := v.Field(i); f.Kind() == reflect.Struct {
			walkFields(f, path+sf.Name+".", visit)
		} else {
			visit(path+sf.Name, f)
		}
	}
}

// filledResult sets every exported Result field to a distinct non-zero
// value: integers to their position, floats to a multiple of π (no short
// decimal form), strings to their path.
func filledResult(t *testing.T) *Result {
	r := new(Result)
	n := 0
	walkFields(reflect.ValueOf(r).Elem(), "", func(path string, f reflect.Value) {
		n++
		switch {
		case f.CanInt():
			f.SetInt(int64(n))
		case f.CanFloat():
			f.SetFloat(float64(n) * math.Pi)
		case f.Kind() == reflect.String:
			f.SetString(path)
		default:
			t.Fatalf("Result.%s has kind %s, which filledResult cannot fill", path, f.Kind())
		}
	})
	return r
}

// TestCheckpointRoundTripsEveryResultField: a checkpoint stores every
// Result field, so a resumed scenario reports exactly what it computed.
func TestCheckpointRoundTripsEveryResultField(t *testing.T) {
	want := filledResult(t)
	path := filepath.Join(t.TempDir(), "suite.json")
	if err := saveCheckpoint(path, "s", map[string]*Result{"k": want}); err != nil {
		t.Fatal(err)
	}
	prev, err := loadCheckpoint(path, "s")
	if err != nil {
		t.Fatal(err)
	}
	var got *Result
	if err := json.Unmarshal(prev["k"], &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) || !reflect.DeepEqual(bits(want), bits(got)) {
		t.Errorf("checkpoint round trip changed the Result\nsaved:  %+v\nloaded: %+v", want, got)
	}
}

// TestTablesRenderEveryNumericResultField: every numeric Result field but
// Index appears in ComparisonTable or DetailTable, so no metric is computed
// and stored yet never reported.
func TestTablesRenderEveryNumericResultField(t *testing.T) {
	r := &Result{Name: "render"}
	type sentinel struct{ path, text string }
	var want []sentinel
	n := 7000 // four-digit sentinels: none is a substring of another's rendering
	walkFields(reflect.ValueOf(r).Elem(), "", func(path string, f reflect.Value) {
		if path == "Index" || !(f.CanInt() || f.CanFloat()) {
			return
		}
		n++
		if f.CanInt() {
			f.SetInt(int64(n))
		} else {
			f.SetFloat(float64(n))
		}
		want = append(want, sentinel{path, strconv.Itoa(n)})
	})
	out := ComparisonTable(&SuiteResult{Suite: "s", Results: []*Result{r}, Errs: []error{nil}}).String() +
		DetailTable(r).String()
	for _, w := range want {
		if !strings.Contains(out, w.text) {
			t.Errorf("Result.%s (set to %s) is rendered by neither ComparisonTable nor DetailTable", w.path, w.text)
		}
	}
}

// ckSuite is a suite of one or two short scenarios for the checkpoint
// edge-case and fuzz tests; its first scenario is the same in both sizes.
func ckSuite(n int) Suite {
	s := Suite{Name: "ck-suite", Seed: 11, DurationSeconds: 60}
	for i, name := range []string{"a", "b"}[:n] {
		s.Scenarios = append(s.Scenarios, Scenario{Name: name,
			Gateways: []GatewayClass{{Name: "g", Count: 2 * (i + 1), DelayMS: 2, RateGbps: 1}}})
	}
	return s
}

// completeCheckpoint runs s from scratch and returns its results and the
// checkpoint file it leaves behind.
func completeCheckpoint(tb testing.TB, s Suite) (*SuiteResult, []byte) {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "suite.json")
	sr, err := RunSuite(s, Options{Parallel: 1, CheckpointPath: path})
	if err != nil {
		tb.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return sr, b
}

// editCheckpoint decodes a checkpoint file, applies edit to it (with its
// keys sorted), and re-encodes it.
func editCheckpoint(tb testing.TB, b []byte, edit func(ck *checkpoint[json.RawMessage], keys []string)) []byte {
	tb.Helper()
	var ck checkpoint[json.RawMessage]
	if err := json.Unmarshal(b, &ck); err != nil {
		tb.Fatal(err)
	}
	keys := make([]string, 0, len(ck.Results))
	for k := range ck.Results {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	edit(&ck, keys)
	out, err := json.Marshal(ck)
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// parentFormat reads a checkpoint of ckSuite(2) in the earlier tune.Analysis
// layout (positional float reports, fingerprint halves in the trial config),
// as that layout's writer produced it.
func parentFormat(tb testing.TB) []byte {
	tb.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "checkpoint-parent-format.json"))
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

func TestSuiteCheckpointEdgeCases(t *testing.T) {
	s := ckSuite(2)
	ref, valid := completeCheckpoint(t, s)
	for _, tc := range []struct {
		name    string
		file    []byte
		resumed int // scenarios trusted from the file; -1 = RunSuite fails
	}{
		{"complete", valid, 2},
		{"not JSON", []byte(`{"version": "1-`), -1},
		{"parent tune.Analysis format", parentFormat(t), 0},
		{"edited version", editCheckpoint(t, valid, func(ck *checkpoint[json.RawMessage], _ []string) {
			ck.Version += "0"
		}), 0},
		{"other suite", editCheckpoint(t, valid, func(ck *checkpoint[json.RawMessage], _ []string) {
			ck.Suite = "other"
		}), 0},
		{"entry under unknown key", editCheckpoint(t, valid, func(ck *checkpoint[json.RawMessage], keys []string) {
			ck.Results["0123456789abcdef"] = ck.Results[keys[0]]
			delete(ck.Results, keys[0])
		}), 1},
		{"null entry", editCheckpoint(t, valid, func(ck *checkpoint[json.RawMessage], keys []string) {
			ck.Results[keys[0]] = json.RawMessage("null")
		}), 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "suite.json")
			if err := os.WriteFile(path, tc.file, 0o644); err != nil {
				t.Fatal(err)
			}
			sr, err := RunSuite(s, Options{Parallel: 1, CheckpointPath: path})
			if tc.resumed < 0 {
				if err == nil || !strings.Contains(err.Error(), path) {
					t.Fatalf("err = %v, want an error naming %s", err, path)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if sr.Resumed != tc.resumed || sr.Executed != 2-tc.resumed {
				t.Errorf("executed=%d resumed=%d, want %d/%d", sr.Executed, sr.Resumed, 2-tc.resumed, tc.resumed)
			}
			for i := range ref.Results {
				if !reflect.DeepEqual(ref.Results[i], sr.Results[i]) || !reflect.DeepEqual(bits(ref.Results[i]), bits(sr.Results[i])) {
					t.Errorf("scenario %d differs from the uninterrupted run", i)
				}
			}
		})
	}
}

// FuzzSuiteCheckpoint: whatever bytes sit at the checkpoint path, RunSuite
// either fails with an error or completes every scenario, each Result in its
// own slot under its own name. Plain `go test` runs the seeds only.
func FuzzSuiteCheckpoint(f *testing.F) {
	_, valid := completeCheckpoint(f, ckSuite(2))
	f.Add(valid, true)
	f.Add(valid, false)
	f.Add(parentFormat(f), true)
	f.Add(valid[:len(valid)/2], true)
	f.Add([]byte("null"), false)
	f.Add([]byte(`{"results":null}`), true)
	f.Add(editCheckpoint(f, valid, func(ck *checkpoint[json.RawMessage], keys []string) {
		ck.Results[keys[0]] = json.RawMessage("null")
	}), true)
	f.Fuzz(func(t *testing.T, data []byte, two bool) {
		n := 1
		if two {
			n = 2
		}
		s := ckSuite(n)
		path := filepath.Join(t.TempDir(), "suite.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		sr, err := RunSuite(s, Options{Parallel: 1, CheckpointPath: path})
		if err != nil {
			return
		}
		if sr.Executed+sr.Resumed != n {
			t.Fatalf("executed=%d resumed=%d, want %d scenarios accounted for", sr.Executed, sr.Resumed, n)
		}
		for i, r := range sr.Results {
			if r == nil || r.Index != i || r.Name != s.Scenarios[i].Name {
				t.Fatalf("Results[%d] = %+v, want scenario %q at index %d", i, r, s.Scenarios[i].Name, i)
			}
		}
	})
}

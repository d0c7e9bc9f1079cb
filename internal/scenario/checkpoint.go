package scenario

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"reflect"
)

// checkpointFormat numbers the envelope of the checkpoint file. Changes to
// Result itself need no bump: checkpointVersion hashes its shape.
const checkpointFormat = 1

// checkpointVersion tags every checkpoint with the envelope format and a
// hash of Result's field names, types and JSON tags (recursing into nested
// structs such as stats.Summary), so any change to Result makes old
// checkpoints count as empty and every scenario re-runs.
var checkpointVersion = func() string {
	h := fnv.New64a()
	hashFields(h, reflect.TypeOf(Result{}))
	return fmt.Sprintf("%d-%016x", checkpointFormat, h.Sum64())
}()

func hashFields(w io.Writer, t reflect.Type) {
	fmt.Fprint(w, "{")
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		fmt.Fprintf(w, "%s %s %q;", f.Name, f.Type, f.Tag.Get("json"))
		if f.Type.Kind() == reflect.Struct {
			hashFields(w, f.Type)
		}
	}
	fmt.Fprint(w, "}")
}

// checkpoint is the suite checkpoint file: every completed scenario's Result,
// stored verbatim under its fingerprint. R is *Result when writing and
// json.RawMessage when reading, so one bad entry re-runs only its scenario.
type checkpoint[R any] struct {
	Version string       `json:"version"`
	Suite   string       `json:"suite"`
	Results map[string]R `json:"results"`
}

// saveCheckpoint writes the completed results atomically (temp file, then
// rename), so a crash mid-write leaves the previous checkpoint intact.
func saveCheckpoint(path, suite string, results map[string]*Result) error {
	b, err := json.Marshal(checkpoint[*Result]{checkpointVersion, suite, results})
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// loadCheckpoint returns the stored entries by fingerprint. A missing file,
// or a parseable one written for another suite or another checkpointVersion,
// yields no entries; an unreadable or non-JSON file is an error.
func loadCheckpoint(path, suite string) (map[string]json.RawMessage, error) {
	b, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var ck checkpoint[json.RawMessage]
	if err := json.Unmarshal(b, &ck); err != nil {
		return nil, err
	}
	if ck.Version != checkpointVersion || ck.Suite != suite {
		return nil, nil
	}
	return ck.Results, nil
}

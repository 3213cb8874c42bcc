package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/tagging"
)

// TestReadDeltaTSVAcceptsLongLines: a delta line whose field is longer
// than bufio.Scanner's 64 KiB default must parse, exactly as the same
// line does in a -data corpus.
func TestReadDeltaTSVAcceptsLongLines(t *testing.T) {
	long := strings.Repeat("r", 100*1024)
	body := "u1\tjazz\t" + long + "\n-\tu2\tfolk\tr2\n"
	path := filepath.Join(t.TempDir(), "delta.tsv")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}

	d, err := readDeltaTSV(path)
	if err != nil {
		t.Fatalf("readDeltaTSV: %v", err)
	}
	if len(d.Add) != 1 || d.Add[0].Resource != long || d.Add[0].Tag != "jazz" {
		t.Fatalf("adds = %d, want the one long-resource line", len(d.Add))
	}
	if len(d.Remove) != 1 || d.Remove[0].User != "u2" || d.Remove[0].Resource != "r2" {
		t.Fatalf("removes = %+v", d.Remove)
	}

	ds, err := tagging.ReadTSV(strings.NewReader("u1\tjazz\t" + long + "\n"))
	if err != nil {
		t.Fatalf("ReadTSV: %v", err)
	}
	if ds.Stats().Assignments != 1 {
		t.Fatalf("corpus |Y| = %d, want 1", ds.Stats().Assignments)
	}
}

// TestReadDeltaTSVRejectsMalformed: the 3-field check applies after the
// removal prefix is stripped, and errors carry the line number.
func TestReadDeltaTSVRejectsMalformed(t *testing.T) {
	for _, body := range []string{"u1\tjazz\n", "# c\n-\tu1\tjazz\tr1\textra\n"} {
		path := filepath.Join(t.TempDir(), "delta.tsv")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := readDeltaTSV(path)
		if err == nil || !strings.Contains(err.Error(), "want 3 tab-separated fields") {
			t.Fatalf("body %q: err = %v", body, err)
		}
	}
}

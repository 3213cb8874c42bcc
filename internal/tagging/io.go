package tagging

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strings"
)

// WriteTSV serializes the dataset as tab-separated (user, tag, resource)
// lines in deterministic order.
func WriteTSV(w io.Writer, d *Dataset) error {
	bw := bufio.NewWriter(w)
	for _, a := range d.SortedAssignments() {
		if _, err := fmt.Fprintf(bw, "%s\t%s\t%s\n",
			d.Users.Name(a.User), d.Tags.Name(a.Tag), d.Resources.Name(a.Resource)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// maxLineBytes bounds one TSV line. bufio.Scanner's 64 KiB default is
// too small for corpora with long resource identifiers.
const maxLineBytes = 16 * 1024 * 1024

// ScanTSV calls fn with the 1-based line number and text of every line
// of r that is neither blank nor a '#'-comment, stopping at fn's first
// error. Lines may be up to 16 MiB long.
func ScanTSV(r io.Reader, fn func(line int, text string) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxLineBytes)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		text := strings.TrimRight(sc.Text(), "\r\n")
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		if err := fn(lineNo, text); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("scan: %w", err)
	}
	return nil
}

// SplitRecord splits one TSV line into its user, tag and resource
// fields, rejecting lines that do not hold exactly three.
func SplitRecord(line int, text string) (user, tag, resource string, err error) {
	parts := strings.Split(text, "\t")
	if len(parts) != 3 {
		return "", "", "", fmt.Errorf("line %d: want 3 tab-separated fields, got %d", line, len(parts))
	}
	return parts[0], parts[1], parts[2], nil
}

// ReadTSV parses tab-separated (user, tag, resource) lines into a
// dataset. Blank lines and lines starting with '#' are skipped.
func ReadTSV(r io.Reader) (*Dataset, error) {
	d := NewDataset()
	err := ScanTSV(r, func(line int, text string) error {
		u, t, res, err := SplitRecord(line, text)
		if err != nil {
			return err
		}
		d.Add(u, t, res)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("tagging: %w", err)
	}
	return d, nil
}

// SaveFile writes the dataset to path as TSV.
func SaveFile(path string, d *Dataset) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("tagging: create %s: %w", path, err)
	}
	defer f.Close()
	if err := WriteTSV(f, d); err != nil {
		return fmt.Errorf("tagging: write %s: %w", path, err)
	}
	return f.Close()
}

// LoadFile reads a TSV dataset from path.
func LoadFile(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("tagging: open %s: %w", path, err)
	}
	defer f.Close()
	return ReadTSV(f)
}

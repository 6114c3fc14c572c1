package data

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// LoadCSV reads a labeled dataset from CSV-like text: one sample per line,
// feature values separated by sep (comma, space or tab all work with
// sep==0, which auto-detects), with the integer class label in the LAST
// column. Real datasets — e.g. the UCI HAR feature files the paper uses —
// can be dropped in this way instead of the synthetic generators.
func LoadCSV(r io.Reader, sep rune, numClasses int) (*Dataset, error) {
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var ds *Dataset
	line := 0
	for scanner.Scan() {
		line++
		text := strings.TrimSpace(scanner.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := splitFields(text, sep)
		if len(fields) < 2 {
			return nil, fmt.Errorf("data: line %d has %d fields, need ≥2", line, len(fields))
		}
		label, err := strconv.Atoi(fields[len(fields)-1])
		if err != nil {
			return nil, fmt.Errorf("data: line %d label %q: %w", line, fields[len(fields)-1], err)
		}
		if label < 0 || (numClasses > 0 && label >= numClasses) {
			return nil, fmt.Errorf("data: line %d label %d out of range [0,%d)", line, label, numClasses)
		}
		feat := make([]float32, len(fields)-1)
		for i, f := range fields[:len(fields)-1] {
			v, err := strconv.ParseFloat(f, 32)
			if err != nil {
				return nil, fmt.Errorf("data: line %d field %d %q: %w", line, i, f, err)
			}
			feat[i] = float32(v)
		}
		if ds == nil {
			nc := numClasses
			if nc <= 0 {
				nc = label + 1
			}
			ds = NewDataset([]int{len(feat)}, nc)
		}
		if len(feat) != ds.SampleLen() {
			return nil, fmt.Errorf("data: line %d has %d features, first line had %d", line, len(feat), ds.SampleLen())
		}
		if numClasses <= 0 && label >= ds.NumClasses {
			ds.NumClasses = label + 1
		}
		ds.Add(feat, label)
	}
	if err := scanner.Err(); err != nil {
		return nil, fmt.Errorf("data: read: %w", err)
	}
	if ds == nil {
		return nil, fmt.Errorf("data: no samples found")
	}
	return ds, nil
}

// SaveCSV writes the dataset in the format LoadCSV reads (comma-separated,
// label last).
func SaveCSV(w io.Writer, ds *Dataset) error {
	bw := bufio.NewWriter(w)
	for i := range ds.X {
		for _, v := range ds.X[i] {
			if _, err := fmt.Fprintf(bw, "%g,", v); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(bw, "%d\n", ds.Y[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func splitFields(s string, sep rune) []string {
	if sep != 0 {
		parts := strings.Split(s, string(sep))
		out := parts[:0]
		for _, p := range parts {
			if p = strings.TrimSpace(p); p != "" {
				out = append(out, p)
			}
		}
		return out
	}
	// Auto-detect: commas if present, otherwise any whitespace.
	if strings.ContainsRune(s, ',') {
		return splitFields(s, ',')
	}
	return strings.Fields(s)
}

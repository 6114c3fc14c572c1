package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
)

// This file is the exposition side of the registry: an immutable Snapshot
// of every family, rendered as Prometheus text. The rendering is canonical —
// families sorted by name, children sorted by label string, no timestamps,
// shortest-roundtrip float formatting — so two scrapes of a
// quiescent registry are byte-identical (the ci.sh admin gate holds the
// repo to that), and a replayed trace renders the same bytes as the live
// endpoint it mirrors.

// Bucket is one cumulative histogram bucket: the count of observations
// less than or equal to UpperBound.
type Bucket struct {
	UpperBound float64
	Count      uint64
}

// Point is one child of a family: a label set plus its value(s).
type Point struct {
	Labels string // canonical `k="v",...` form
	// Counter/gauge value.
	Value float64
	// Histogram-only fields.
	Buckets []Bucket
	Sum     float64
	Count   uint64
}

// Family is one metric with all its children.
type Family struct {
	Name   string
	Type   MetricType
	Help   string
	Points []Point
}

// Snapshot captures every family in canonical order. Values are read with
// atomic loads; a snapshot taken while writers are active is a consistent
// per-metric (not cross-metric) view, and at quiescence it is exact.
func (r *Registry) Snapshot() []Family {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]Family, 0, len(names))
	for _, name := range names {
		f := r.families[name]
		if f.typ == "" && len(f.children) == 0 {
			continue // Help-only placeholder, never instantiated
		}
		fam := Family{Name: f.name, Type: f.typ, Help: f.help}
		keys := make([]string, 0, len(f.children))
		for k := range f.children {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			switch h := f.children[k].(type) {
			case *Counter:
				fam.Points = append(fam.Points, Point{Labels: k, Value: h.Value()})
			case *Gauge:
				fam.Points = append(fam.Points, Point{Labels: k, Value: h.Value()})
			case *Histogram:
				p := Point{Labels: k, Sum: h.Sum()}
				var cum uint64
				for i := range h.counts {
					cum += h.counts[i].Load()
					ub := math.Inf(1)
					if i < len(h.bounds) {
						ub = h.bounds[i]
					}
					p.Buckets = append(p.Buckets, Bucket{UpperBound: ub, Count: cum})
				}
				p.Count = cum
				fam.Points = append(fam.Points, p)
			}
		}
		out = append(out, fam)
	}
	return out
}

// MergeSnapshots combines several snapshots into one canonical snapshot:
// same-named families concatenate their points (re-sorted by labels), and
// the merged family list is re-sorted by name. Used by the admin server
// when a process exposes more than one registry (e.g. nebula-cloud's
// per-server registry plus the process Default).
func MergeSnapshots(snaps ...[]Family) []Family {
	byName := map[string]*Family{}
	var order []string
	for _, snap := range snaps {
		for _, f := range snap {
			g, ok := byName[f.Name]
			if !ok {
				cp := f
				cp.Points = append([]Point(nil), f.Points...)
				byName[f.Name] = &cp
				order = append(order, f.Name)
				continue
			}
			g.Points = append(g.Points, f.Points...)
			if g.Help == "" {
				g.Help = f.Help
			}
		}
	}
	sort.Strings(order)
	out := make([]Family, 0, len(order))
	for _, name := range order {
		f := byName[name]
		sort.Slice(f.Points, func(i, j int) bool { return f.Points[i].Labels < f.Points[j].Labels })
		out = append(out, *f)
	}
	return out
}

// fmtVal renders a sample value deterministically: integers (the common
// case for counters) without an exponent or trailing zeros, everything
// else with strconv's shortest round-trip form.
func fmtVal(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// fmtLe renders a bucket bound for the le label.
func fmtLe(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return fmtVal(v)
}

// WritePrometheus renders families in the Prometheus text exposition
// format (version 0.0.4): # HELP / # TYPE headers, one line per sample,
// histograms expanded into cumulative _bucket/_sum/_count series. Output
// is a pure function of the snapshot — no timestamps.
func WritePrometheus(w io.Writer, fams []Family) error {
	for _, f := range fams {
		if f.Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.Name, f.Help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.Name, f.Type); err != nil {
			return err
		}
		for _, p := range f.Points {
			if f.Type != TypeHistogram {
				if err := writeSample(w, f.Name, p.Labels, fmtVal(p.Value)); err != nil {
					return err
				}
				continue
			}
			for _, b := range p.Buckets {
				le := `le="` + fmtLe(b.UpperBound) + `"`
				if err := writeSample(w, f.Name+"_bucket", joinLabels(p.Labels, le), strconv.FormatUint(b.Count, 10)); err != nil {
					return err
				}
			}
			if err := writeSample(w, f.Name+"_sum", p.Labels, fmtVal(p.Sum)); err != nil {
				return err
			}
			if err := writeSample(w, f.Name+"_count", p.Labels, strconv.FormatUint(p.Count, 10)); err != nil {
				return err
			}
		}
	}
	return nil
}

func joinLabels(a, b string) string {
	if a == "" {
		return b
	}
	return a + "," + b
}

func writeSample(w io.Writer, name, labels, val string) error {
	var err error
	if labels == "" {
		_, err = fmt.Fprintf(w, "%s %s\n", name, val)
	} else {
		_, err = fmt.Fprintf(w, "%s{%s} %s\n", name, labels, val)
	}
	return err
}

package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Runner executes one experiment and writes its tables/figures to opt.Out.
type Runner struct {
	ID    string
	Paper string // which paper artifact it regenerates
	Run   func(opt Options) error
}

// Registry lists every experiment, keyed by id.
func Registry() []Runner {
	return []Runner{
		{"fig1a", "Figure 1(a) — accuracy per time slot under data shift", func(o Options) error {
			fig := RunFig1a(o)
			fig.Fprint(o.Out)
			if o.Points {
				fig.FprintPoints(o.Out)
			}
			return nil
		}},
		{"fig1b", "Figure 1(b) — inference latency vs co-running processes", func(o Options) error {
			RunFig1b(o).Fprint(o.Out)
			return nil
		}},
		{"fig2", "Figure 2 — heterogeneous device resources survey", func(o Options) error {
			for _, t := range RunFig2(o) {
				t.Fprint(o.Out)
				fmt.Fprintln(o.Out)
			}
			return nil
		}},
		{"table1", "Table 1 — accuracy of all systems after one adaptation step", func(o Options) error {
			RunTable1(o).Fprint(o.Out)
			return nil
		}},
		{"fig7", "Figure 7 — communication cost during adaptation", func(o Options) error {
			RunFig7(o).Fprint(o.Out)
			return nil
		}},
		{"fig8", "Figure 8 — memory footprint during adaptation", func(o Options) error {
			RunFig8(o).Fprint(o.Out)
			return nil
		}},
		{"fig9", "Figure 9 — training latency during adaptation", func(o Options) error {
			RunFig9(o).Fprint(o.Out)
			return nil
		}},
		{"fig10", "Figure 10 — accuracy over repeated adaptation steps", func(o Options) error {
			for _, r := range RunContinuous(o) {
				r.Fig.Fprint(o.Out)
				if o.Points {
					r.Fig.FprintPoints(o.Out)
				}
				if r.Faults != nil {
					r.Faults.Fprint(o.Out)
				}
				fmt.Fprintln(o.Out)
			}
			return nil
		}},
		{"fig11", "Figure 11 — average adaptation accuracy and time", func(o Options) error {
			Fig11Table(RunContinuous(o)).Fprint(o.Out)
			return nil
		}},
		{"fig12", "Figure 12 — sub-model accuracy vs size landscape", func(o Options) error {
			for _, t := range RunFig12(o) {
				t.Fprint(o.Out)
				fmt.Fprintln(o.Out)
			}
			return nil
		}},
		{"fig13a", "Figure 13(a) — impact of on-device resources", func(o Options) error {
			RunFig13a(o).Fprint(o.Out)
			return nil
		}},
		{"fig13b", "Figure 13(b) — impact of module granularity", func(o Options) error {
			RunFig13b(o).Fprint(o.Out)
			return nil
		}},
		{"fig13c", "Figure 13(c) — impact of participating devices", func(o Options) error {
			RunFig13c(o).Fprint(o.Out)
			return nil
		}},
		{"ablations", "Design-choice ablations beyond the paper's figures", func(o Options) error {
			RunAblations(o).Fprint(o.Out)
			return nil
		}},
		{"faults", "Robustness — adaptation over a seeded lossy link (beyond the paper)", func(o Options) error {
			r := RunFaults(o)
			r.Table.Fprint(o.Out)
			r.Counters.Fprint(o.Out)
			return nil
		}},
		{"straggler", "Straggler stall — bulk-sync vs semi-async rounds under churn (beyond the paper)", func(o Options) error {
			r := RunStraggler(o)
			r.Table.Fprint(o.Out)
			r.FprintGate(o.Out)
			return nil
		}},
		{"compress", "Wire-format v2 — exact vs delta-quantized sub-model exchange (beyond the paper)", func(o Options) error {
			r := RunCompress(o)
			r.Table.Fprint(o.Out)
			r.FprintGate(o.Out)
			return nil
		}},
	}
}

// IDs returns the sorted experiment ids.
func IDs() []string {
	var ids []string
	for _, r := range Registry() {
		ids = append(ids, r.ID)
	}
	sort.Strings(ids)
	return ids
}

// Run executes one experiment by id, or all of them for id == "all".
func Run(id string, opt Options) error {
	if err := opt.validate(); err != nil {
		return err
	}
	if id == "all" {
		for _, r := range Registry() {
			fmt.Fprintf(opt.Out, "### %s: %s\n", r.ID, r.Paper)
			if err := r.Run(opt); err != nil {
				return fmt.Errorf("%s: %w", r.ID, err)
			}
			fmt.Fprintln(opt.Out)
		}
		return nil
	}
	for _, r := range Registry() {
		if r.ID == id {
			return r.Run(opt)
		}
	}
	return fmt.Errorf("unknown experiment %q; available: %s or 'all'", id, strings.Join(IDs(), ", "))
}

// WriteIndex prints the experiment index (id → paper artifact).
func WriteIndex(w io.Writer) {
	for _, r := range Registry() {
		fmt.Fprintf(w, "%-8s %s\n", r.ID, r.Paper)
	}
}

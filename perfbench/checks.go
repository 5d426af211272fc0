package main

import (
	"fmt"
	"strconv"
	"strings"
)

// Output checks for the figures workload. They test properties the
// method must have (category columns sum to their total, invalidate
// rows carry no updates), the paper's findings that hold at quick
// scale, and agreement between two paths computed apart in the same
// run. None compares against a stored copy of earlier output.

// table is one rendered stats table.
type table struct {
	title string
	cols  []string
	rows  []string
	cells [][]string
}

// parseTables splits rendered output into its tables. Row headers must
// be single words, which holds for every table the checks read.
func parseTables(out string) []table {
	var ts []table
	for _, block := range strings.Split(out, "\n\n") {
		lines := strings.Split(strings.Trim(block, "\n"), "\n")
		if len(lines) < 2 {
			continue
		}
		t := table{title: lines[0], cols: strings.Fields(lines[1])}
		for _, l := range lines[2:] {
			f := strings.Fields(l)
			if len(f) == 0 {
				continue
			}
			t.rows = append(t.rows, f[0])
			t.cells = append(t.cells, f[1:])
		}
		ts = append(ts, t)
	}
	return ts
}

// value returns the numeric cell at (row, col).
func (t table) value(row, col string) (float64, error) {
	ci := -1
	for j, c := range t.cols {
		if c == col {
			ci = j
		}
	}
	for i, r := range t.rows {
		if r == row && ci >= 0 && ci < len(t.cells[i]) {
			return strconv.ParseFloat(t.cells[i][ci], 64)
		}
	}
	return 0, fmt.Errorf("%q: no cell (%s, %s)", t.title, row, col)
}

// lowest returns the row with the smallest value in col.
func (t table) lowest(col string) (string, error) {
	best, bestV := "", 0.0
	for _, r := range t.rows {
		v, err := t.value(r, col)
		if err != nil {
			return "", err
		}
		if best == "" || v < bestV {
			best, bestV = r, v
		}
	}
	return best, nil
}

// checkSums checks that every row's category columns sum to its total.
func checkSums(t table) error {
	if len(t.cols) == 0 || t.cols[len(t.cols)-1] != "total" {
		return fmt.Errorf("%q: last column is not total", t.title)
	}
	for i, r := range t.rows {
		if len(t.cells[i]) != len(t.cols) {
			return fmt.Errorf("%q row %s: %d cells for %d columns", t.title, r, len(t.cells[i]), len(t.cols))
		}
		var sum int64
		for _, c := range t.cells[i][:len(t.cols)-1] {
			v, err := strconv.ParseInt(c, 10, 64)
			if err != nil {
				return fmt.Errorf("%q row %s: %v", t.title, r, err)
			}
			sum += v
		}
		total, err := strconv.ParseInt(t.cells[i][len(t.cols)-1], 10, 64)
		if err != nil {
			return fmt.Errorf("%q row %s: %v", t.title, r, err)
		}
		if sum != total {
			return fmt.Errorf("%q row %s: categories sum to %d, total says %d", t.title, r, sum, total)
		}
	}
	return nil
}

// less checks t[a, col] < t[b, col].
func less(t table, a, b, col string) error {
	va, err := t.value(a, col)
	if err != nil {
		return err
	}
	vb, err := t.value(b, col)
	if err != nil {
		return err
	}
	if va >= vb {
		return fmt.Errorf("%q at %s: %s (%g) is not below %s (%g)", t.title, col, a, va, b, vb)
	}
	return nil
}

// checkFigure checks one catalog entry's output. other returns the same
// round's output of another entry.
func checkFigure(name, out string, other func(name string) string) error {
	ts := parseTables(out)
	if len(ts) == 0 {
		return fmt.Errorf("no tables")
	}
	t := ts[0]
	var errs []error
	add := func(err error) {
		if err != nil {
			errs = append(errs, err)
		}
	}
	switch name {
	case "fig9", "fig12", "fig15":
		add(checkSums(t))
	case "fig10", "fig13", "fig16":
		add(checkSums(t))
		for _, r := range t.rows {
			if strings.HasSuffix(r, "-i") {
				add(fmt.Errorf("%q: invalidate row %s in an update table", t.title, r))
			}
		}
	}
	switch name {
	case "fig8":
		// MCS under competitive update has the lowest lock latency at P=32.
		best, err := t.lowest("P=32")
		add(err)
		if err == nil && best != "MCS-c" {
			add(fmt.Errorf("%q: lowest at P=32 is %s, want MCS-c", t.title, best))
		}
	case "fig10":
		// Standard MCS under PU: update traffic is mostly proliferation.
		useful, err1 := t.value("MCS-u", "useful")
		prolif, err2 := t.value("MCS-u", "prolif")
		add(err1)
		add(err2)
		if err1 == nil && err2 == nil && prolif <= useful {
			add(fmt.Errorf("%q: MCS-u proliferation %g not above useful %g", t.title, prolif, useful))
		}
	case "fig11":
		// Dissemination and tree barriers are faster under PU and CU than
		// WI, and dissemination under an update protocol is the best
		// barrier, at every machine size with more than one processor.
		for _, col := range []string{"P=4", "P=32"} {
			for _, b := range []string{"db", "tb"} {
				add(less(t, b+"-u", b+"-i", col))
				add(less(t, b+"-c", b+"-i", col))
			}
			best, err := t.lowest(col)
			add(err)
			if err == nil && best != "db-u" && best != "db-c" {
				add(fmt.Errorf("%q: lowest at %s is %s, want db-u or db-c", t.title, col, best))
			}
		}
	case "fig13":
		// Dissemination barrier update traffic is all useful.
		for _, r := range []string{"db-u", "db-c"} {
			u, err1 := t.value(r, "useful")
			tot, err2 := t.value(r, "total")
			add(err1)
			add(err2)
			if err1 == nil && err2 == nil && u != tot {
				add(fmt.Errorf("%q: %s useful %g of %g updates", t.title, r, u, tot))
			}
		}
	case "fig14":
		// At P=32 a parallel reduction beats a sequential one under WI
		// but not under PU, and sequential-under-PU is the best overall.
		add(less(t, "pr-i", "sr-i", "P=32"))
		add(less(t, "sr-u", "pr-u", "P=32"))
		best, err := t.lowest("P=32")
		add(err)
		if err == nil && best != "sr-u" {
			add(fmt.Errorf("%q: lowest at P=32 is %s, want sr-u", t.title, best))
		}
	case "extlocks":
		// The extended sweep runs tk/MCS/uc through the custom-lock path;
		// it must agree with figure 8's decomposed lock points.
		f8 := parseTables(other("fig8"))
		if len(f8) == 0 {
			add(fmt.Errorf("fig8 output missing"))
			break
		}
		for i, r := range f8[0].rows {
			found := false
			for j, er := range t.rows {
				if er == r {
					found = true
					if strings.Join(t.cells[j], " ") != strings.Join(f8[0].cells[i], " ") {
						add(fmt.Errorf("extlocks row %s %v differs from fig8 %v", r, t.cells[j], f8[0].cells[i]))
					}
				}
			}
			if !found {
				add(fmt.Errorf("extlocks has no row %s", r))
			}
		}
	case "ablations":
		// The spin-wait ablation under WI sends no update messages.
		found := false
		for _, at := range ts {
			if !strings.HasPrefix(at.title, "Ablation: spin-wait model") || !strings.Contains(at.title, "WI") {
				continue
			}
			found = true
			for _, r := range at.rows {
				v, err := at.value(r, "updates")
				add(err)
				if err == nil && v != 0 {
					add(fmt.Errorf("%q: WI row %s has %g updates", at.title, r, v))
				}
			}
		}
		if !found {
			add(fmt.Errorf("no WI spin-wait ablation table"))
		}
	}
	if len(errs) > 0 {
		return errs[0]
	}
	return nil
}

package sim

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
)

// Table formatting for the experiment harness: each figure prints two blocks
// mirroring the paper's two panels (re-execution rate on top, percent
// speedup over the study baseline below).

func header(w io.Writer, title string, benches []string) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "%-10s", "config")
	for _, b := range benches {
		fmt.Fprintf(w, "%9s", abbrev(b))
	}
	fmt.Fprintf(w, "%9s\n", "avg")
	fmt.Fprintln(w, strings.Repeat("-", 10+9*(len(benches)+1)))
}

func abbrev(b string) string {
	if len(b) > 8 {
		return b[:8]
	}
	return b
}

// PrintLadder renders a ladder result as the figure's two panels.
func (r *LadderResult) Print(w io.Writer) {
	header(w, fmt.Sprintf("%s: %% loads re-executed", r.Ladder.Name), r.Benches)
	for ci, label := range r.Ladder.Labels {
		fmt.Fprintf(w, "%-10s", label)
		for bi := range r.Benches {
			fmt.Fprintf(w, "%9.1f", 100*r.RexRate(ci, bi))
		}
		fmt.Fprintf(w, "%9.1f\n", 100*r.AvgRexRate(ci))
	}
	fmt.Fprintln(w)

	header(w, fmt.Sprintf("%s: %% speedup vs %s", r.Ladder.Name, r.Ladder.Baseline.Name), r.Benches)
	for ci, label := range r.Ladder.Labels {
		fmt.Fprintf(w, "%-10s", label)
		for bi := range r.Benches {
			fmt.Fprintf(w, "%9.1f", r.Speedup(ci, bi))
		}
		fmt.Fprintf(w, "%9.1f\n", r.AvgSpeedup(ci))
	}
	fmt.Fprintln(w)

	fmt.Fprintf(w, "baseline IPC:")
	for bi := range r.Benches {
		fmt.Fprintf(w, " %s=%.2f", abbrev(r.Benches[bi]), r.Base[bi].IPC())
	}
	fmt.Fprintln(w)
}

// LadderJSON is the machine-readable form of a LadderResult: the two panels
// the figure plots (per-benchmark re-execution rates and baseline-relative
// speedups, both in percent), indexed [config][bench].
type LadderJSON struct {
	Name        string      `json:"name"`
	Baseline    string      `json:"baseline"`
	Benches     []string    `json:"benches"`
	Labels      []string    `json:"labels"`
	BaselineIPC []float64   `json:"baseline_ipc"`
	RexPct      [][]float64 `json:"rex_pct"`
	SpeedupPct  [][]float64 `json:"speedup_pct"`
}

// JSON returns the ladder's machine-readable summary.
func (r *LadderResult) JSON() LadderJSON {
	j := LadderJSON{
		Name:     r.Ladder.Name,
		Baseline: r.Ladder.Baseline.Name,
		Benches:  r.Benches,
		Labels:   r.Ladder.Labels,
	}
	for bi := range r.Benches {
		j.BaselineIPC = append(j.BaselineIPC, round3(r.Base[bi].IPC()))
	}
	for ci := range r.Ladder.Labels {
		var rex, spd []float64
		for bi := range r.Benches {
			rex = append(rex, round3(100*r.RexRate(ci, bi)))
			spd = append(spd, round3(r.Speedup(ci, bi)))
		}
		j.RexPct = append(j.RexPct, rex)
		j.SpeedupPct = append(j.SpeedupPct, spd)
	}
	return j
}

// round3 keeps JSON output stable and readable (3 decimal places carries
// every figure's precision; the tables print 1).
func round3(v float64) float64 { return math.Round(v*1000) / 1000 }

// WriteJSON writes the ladder's indented JSON summary followed by a newline.
func (r *LadderResult) WriteJSON(w io.Writer) error { return writeJSON(w, r.JSON()) }

// writeJSON is every report's JSON encoding: indented, newline-terminated.
func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// BreakdownJSON is the machine-readable form of a figure's shaded split of
// one configuration's re-execution rate, per benchmark.
type BreakdownJSON struct {
	Config    string    `json:"config"`
	Top       string    `json:"top"`
	Bottom    string    `json:"bottom"`
	TopPct    []float64 `json:"top_pct"`
	BottomPct []float64 `json:"bottom_pct"`
}

// split is the stacked bar a figure shades: rung's re-execution rate broken
// into a top and a bottom share.
type split struct {
	rung                int
	top, bottom         string
	topRate, bottomRate func(*Result) float64
}

// figureSplits are the splits Figs. 6 (FSQ vs best-effort) and 7 (reuse vs
// bypassing) shade.
var figureSplits = map[int]split{
	6: {2, "fsq", "best-effort",
		func(r *Result) float64 { return r.Stats.RexRateFSQ() },
		func(r *Result) float64 { return r.Stats.RexRateBest() }},
	7: {1, "reuse", "bypass",
		func(r *Result) float64 { return r.Stats.RexRateReuse() },
		func(r *Result) float64 { return r.Stats.RexRateBypass() }},
}

// FigureReport is one of Figs. 5–7: the ladder's two panels, the split the
// figure shades (Figs. 6 and 7) and, for Fig. 7, the elimination rates.
type FigureReport struct {
	*LadderResult
	fig int
}

// FigureJSON is the machine-readable form of a FigureReport.
type FigureJSON struct {
	LadderJSON
	Breakdown *BreakdownJSON `json:"breakdown,omitempty"`
	ElimPct   []float64      `json:"elim_pct,omitempty"`
}

// elimPct is Fig. 7's per-benchmark elimination rate of the raw RLE rung,
// in percent (nil for the other figures).
func (r *FigureReport) elimPct() []float64 {
	if r.fig != 7 {
		return nil
	}
	var out []float64
	for bi := range r.Benches {
		out = append(out, math.Round(100_000*r.Runs[0][bi].Stats.ElimRate())/1000)
	}
	return out
}

// JSON returns the figure's machine-readable summary.
func (r *FigureReport) JSON() FigureJSON {
	j := FigureJSON{LadderJSON: r.LadderResult.JSON(), ElimPct: r.elimPct()}
	if sp, ok := figureSplits[r.fig]; ok {
		b := BreakdownJSON{Config: r.Ladder.Labels[sp.rung], Top: sp.top, Bottom: sp.bottom}
		for bi := range r.Benches {
			b.TopPct = append(b.TopPct, round3(100*sp.topRate(&r.Runs[sp.rung][bi])))
			b.BottomPct = append(b.BottomPct, round3(100*sp.bottomRate(&r.Runs[sp.rung][bi])))
		}
		j.Breakdown = &b
	}
	return j
}

// WriteJSON writes the figure's indented JSON summary.
func (r *FigureReport) WriteJSON(w io.Writer) error { return writeJSON(w, r.JSON()) }

// Print renders the figure's panels, its shaded split and Fig. 7's
// elimination rates.
func (r *FigureReport) Print(w io.Writer) {
	r.LadderResult.Print(w)
	if sp, ok := figureSplits[r.fig]; ok {
		r.printSplit(w, sp)
	}
	if elim := r.elimPct(); elim != nil {
		fmt.Fprintf(w, "elimination rates (RLE):")
		for bi, b := range r.Benches {
			fmt.Fprintf(w, " %s=%.0f%%", b, elim[bi])
		}
		fmt.Fprintln(w)
	}
}

// Fig8JSON is the machine-readable form of a Fig8Result.
type Fig8JSON struct {
	Benches  []string    `json:"benches"`
	Variants []string    `json:"variants"`
	RexPct   [][]float64 `json:"rex_pct"`
	IPC      [][]float64 `json:"ipc"`
}

// JSON returns the Fig. 8 sweep's machine-readable summary.
func (r *Fig8Result) JSON() Fig8JSON {
	j := Fig8JSON{Benches: r.Benches}
	for vi, v := range r.Variants {
		j.Variants = append(j.Variants, v.Label)
		var rex, ipc []float64
		for bi := range r.Benches {
			rex = append(rex, round3(100*r.Rex[vi][bi]))
			ipc = append(ipc, round3(r.IPC[vi][bi]))
		}
		j.RexPct = append(j.RexPct, rex)
		j.IPC = append(j.IPC, ipc)
	}
	return j
}

// WriteJSON writes the Fig. 8 sweep's indented JSON summary.
func (r *Fig8Result) WriteJSON(w io.Writer) error { return writeJSON(w, r.JSON()) }

// SSNWidthJSON is the machine-readable form of an SSNWidthResult.
type SSNWidthJSON struct {
	Benches []string    `json:"benches"`
	Bits    []int       `json:"bits"`
	IPC     [][]float64 `json:"ipc"`
	Drains  [][]uint64  `json:"wrap_drains"`
}

// JSON returns the SSN width study's machine-readable summary.
func (r *SSNWidthResult) JSON() SSNWidthJSON {
	j := SSNWidthJSON{Benches: r.Benches, Bits: r.Bits, Drains: r.Drains}
	for wi := range r.Bits {
		var ipc []float64
		for bi := range r.Benches {
			ipc = append(ipc, round3(r.IPC[wi][bi]))
		}
		j.IPC = append(j.IPC, ipc)
	}
	return j
}

// WriteJSON writes the SSN width study's indented JSON summary.
func (r *SSNWidthResult) WriteJSON(w io.Writer) error { return writeJSON(w, r.JSON()) }

// SSBFUpdateJSON is the machine-readable form of an SSBFUpdateResult.
type SSBFUpdateJSON struct {
	Benches      []string  `json:"benches"`
	RexSpecPct   []float64 `json:"rex_spec_pct"`
	RexAtomicPct []float64 `json:"rex_atomic_pct"`
	IPCSpec      []float64 `json:"ipc_spec"`
	IPCAtomic    []float64 `json:"ipc_atomic"`
}

// JSON returns the update-policy study's machine-readable summary.
func (r *SSBFUpdateResult) JSON() SSBFUpdateJSON {
	j := SSBFUpdateJSON{Benches: r.Benches}
	for bi := range r.Benches {
		j.RexSpecPct = append(j.RexSpecPct, round3(100*r.RexSpec[bi]))
		j.RexAtomicPct = append(j.RexAtomicPct, round3(100*r.RexAtomic[bi]))
		j.IPCSpec = append(j.IPCSpec, round3(r.IPCSpec[bi]))
		j.IPCAtomic = append(j.IPCAtomic, round3(r.IPCAtomic[bi]))
	}
	return j
}

// WriteJSON writes the update-policy study's indented JSON summary.
func (r *SSBFUpdateResult) WriteJSON(w io.Writer) error { return writeJSON(w, r.JSON()) }

// printSplit renders a figure's stacked-bar split as two table rows.
func (r *LadderResult) printSplit(w io.Writer, sp split) {
	header(w, fmt.Sprintf("%s[%s]: re-execution breakdown (%s / %s)",
		r.Ladder.Name, r.Ladder.Labels[sp.rung], sp.top, sp.bottom), r.Benches)
	for _, row := range []struct {
		label string
		rate  func(*Result) float64
	}{{sp.top, sp.topRate}, {sp.bottom, sp.bottomRate}} {
		var sum float64
		fmt.Fprintf(w, "%-10s", row.label)
		for bi := range r.Benches {
			v := row.rate(&r.Runs[sp.rung][bi])
			sum += v
			fmt.Fprintf(w, "%9.1f", 100*v)
		}
		fmt.Fprintf(w, "%9.1f\n", 100*sum/float64(len(r.Benches)))
	}
	fmt.Fprintln(w)
}

// Print renders the Fig. 8 table.
func (r *Fig8Result) Print(w io.Writer) {
	header(w, "fig8: SSBF organization vs % loads re-executed (SSQ+SVW)", r.Benches)
	for vi, v := range r.Variants {
		fmt.Fprintf(w, "%-10s", v.Label)
		var sum float64
		for bi := range r.Benches {
			sum += r.Rex[vi][bi]
			fmt.Fprintf(w, "%9.1f", 100*r.Rex[vi][bi])
		}
		fmt.Fprintf(w, "%9.1f\n", 100*sum/float64(len(r.Benches)))
	}
	fmt.Fprintln(w)
	// Performance delta of the default vs the infinite filter (§4.4 quotes
	// a 0.3% average, 1.6% max).
	var avg, max float64
	maxBench := ""
	for bi := range r.Benches {
		d := (r.IPC[len(r.Variants)-1][bi]/r.IPC[1][bi] - 1) * 100
		avg += d
		if d > max {
			max, maxBench = d, r.Benches[bi]
		}
	}
	fmt.Fprintf(w, "perf delta infinite-vs-512: avg %.2f%%, max %.2f%% (%s)\n\n",
		avg/float64(len(r.Benches)), max, maxBench)
}

// Print renders the SSN width study.
func (r *SSNWidthResult) Print(w io.Writer) {
	header(w, "ssn width: IPC (and wrap drains) on SSQ+SVW", r.Benches)
	var inf []float64
	for wi, bits := range r.Bits {
		if bits == 0 {
			inf = r.IPC[wi]
		}
	}
	for wi, bits := range r.Bits {
		label := fmt.Sprintf("%d-bit", bits)
		if bits == 0 {
			label = "infinite"
		}
		fmt.Fprintf(w, "%-10s", label)
		var sum float64
		for bi := range r.Benches {
			rel := 0.0
			if inf != nil && inf[bi] > 0 {
				rel = (r.IPC[wi][bi]/inf[bi] - 1) * 100
			}
			sum += rel
			fmt.Fprintf(w, "%9.2f", rel)
		}
		fmt.Fprintf(w, "%9.2f\n", sum/float64(len(r.Benches)))
	}
	fmt.Fprintln(w, "(cells: % IPC vs infinite-width SSNs)")
	fmt.Fprintln(w)
}

// Print renders the SSBF update-policy study.
func (r *SSBFUpdateResult) Print(w io.Writer) {
	header(w, "SSBF update policy: % loads re-executed (SSQ+SVW)", r.Benches)
	rows := []struct {
		label string
		rex   []float64
	}{{"spec", r.RexSpec}, {"atomic", r.RexAtomic}}
	for _, row := range rows {
		fmt.Fprintf(w, "%-10s", row.label)
		var sum float64
		for bi := range r.Benches {
			sum += row.rex[bi]
			fmt.Fprintf(w, "%9.2f", 100*row.rex[bi])
		}
		fmt.Fprintf(w, "%9.2f\n", 100*sum/float64(len(r.Benches)))
	}
	var dIPC float64
	for bi := range r.Benches {
		if r.IPCAtomic[bi] > 0 {
			dIPC += (r.IPCSpec[bi]/r.IPCAtomic[bi] - 1) * 100
		}
	}
	fmt.Fprintf(w, "speculative updates: avg IPC gain over atomic %.2f%%\n\n",
		dIPC/float64(len(r.Benches)))
}

// SummaryReport is the abstract's headline: each optimization's average
// re-execution rate without and with SVW, and the reduction between them.
type SummaryReport struct {
	Studies         []SummaryLine `json:"studies"`
	AvgReductionPct float64       `json:"avg_reduction_pct"`
}

// SummaryLine is one optimization's row of the summary.
type SummaryLine struct {
	Study        string  `json:"study"`
	RawRexPct    float64 `json:"raw_rex_pct"`
	SVWRexPct    float64 `json:"svw_rex_pct"`
	ReductionPct float64 `json:"reduction_pct"`
}

// WriteJSON writes the summary as indented JSON.
func (r *SummaryReport) WriteJSON(w io.Writer) error { return writeJSON(w, r) }

// Print renders the summary.
func (r *SummaryReport) Print(w io.Writer) {
	fmt.Fprintln(w, "SVW re-execution reduction (abstract claims ~85% average)")
	for _, l := range r.Studies {
		fmt.Fprintf(w, "  %-6s raw %5.1f%% -> svw %5.1f%%  (reduction %5.1f%%)\n",
			l.Study, l.RawRexPct, l.SVWRexPct, l.ReductionPct)
	}
	fmt.Fprintf(w, "  average reduction across optimizations: %.1f%%\n", r.AvgReductionPct)
}

// RetPortsReport is the retirement-port ablation, one line per benchmark.
type RetPortsReport []RetPortsLine

// RetPortsLine is one benchmark's IPC gain of two store retirement ports
// over one.
type RetPortsLine struct {
	Bench   string  `json:"bench"`
	GainPct float64 `json:"gain_pct"`
}

// WriteJSON writes the ablation as an indented JSON list.
func (r RetPortsReport) WriteJSON(w io.Writer) error { return writeJSON(w, r) }

// Print renders the ablation.
func (r RetPortsReport) Print(w io.Writer) {
	fmt.Fprintln(w, "store retirement ports: % IPC gain of 2 ports over 1 (baseline 8-wide)")
	for _, l := range r {
		fmt.Fprintf(w, "  %-8s %+6.1f%%\n", l.Bench, l.GainPct)
	}
}

// NLQSMReport is the NLQsm extension demo, one line per benchmark.
type NLQSMReport []NLQSMLine

// NLQSMLine is one benchmark's injected invalidations and filter behaviour.
type NLQSMLine struct {
	Bench         string  `json:"bench"`
	Invalidations uint64  `json:"invalidations"`
	RexPct        float64 `json:"rex_pct"`
	SMRexPct      float64 `json:"sm_rex_pct"`
	IPC           float64 `json:"ipc"`
}

// WriteJSON writes the demo as an indented JSON list.
func (r NLQSMReport) WriteJSON(w io.Writer) error { return writeJSON(w, r) }

// Print renders the demo.
func (r NLQSMReport) Print(w io.Writer) {
	fmt.Fprintln(w, "NLQsm extension: injected invalidations, marked loads, filter behaviour")
	for _, l := range r {
		fmt.Fprintf(w, "  %-8s invals=%d rex=%.1f%% (sm-marked rex %.1f%%) IPC=%.2f\n",
			l.Bench, l.Invalidations, l.RexPct, l.SMRexPct, l.IPC)
	}
}

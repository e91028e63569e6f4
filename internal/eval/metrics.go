// Package eval implements the paper's evaluation framework: the Fig. 4
// pipeline (k-shot ICL -> generation -> syntax corrector -> FPV) for COTS
// models, the Fig. 8 pipeline (fine-tune -> generation -> FPV, corrector
// removed) for AssertionLLM, the Pass/CEX/Error metrics of Sec. IV, and
// text renderers for every table and figure in the paper.
package eval

import (
	"encoding/json"
	"fmt"

	"assertionbench/internal/fpv"
)

// Verdict is the paper's three-way assertion classification (Sec. IV).
type Verdict int

// Verdicts.
const (
	// VerdictPass: the FPV engine attests the assertion (valid or vacuous).
	VerdictPass Verdict = iota
	// VerdictCEX: the FPV engine produced a counter-example.
	VerdictCEX
	// VerdictError: the assertion is syntactically or semantically invalid
	// even after correction.
	VerdictError
	// VerdictUnknown: a verification budget (RunOptions.Deadline or
	// RunOptions.DesignBudget) expired before the engine decided the
	// assertion. An anytime outcome, not a fourth quality class: rerunning
	// without the budget (or resuming over the warm caches) converges to
	// one of the three paper verdicts.
	VerdictUnknown
)

func (v Verdict) String() string {
	switch v {
	case VerdictPass:
		return "pass"
	case VerdictCEX:
		return "cex"
	case VerdictUnknown:
		return "unknown"
	default:
		return "error"
	}
}

// Classify maps an FPV result to the paper's metric.
func Classify(r fpv.Result) Verdict {
	switch {
	case r.Status == fpv.StatusError:
		return VerdictError
	case r.Status == fpv.StatusCEX:
		return VerdictCEX
	case r.Status == fpv.StatusUnknown:
		return VerdictUnknown
	default:
		return VerdictPass
	}
}

// Metrics are the Pass/CEX/Error fractions over all generated assertions.
type Metrics struct {
	NPass  int `json:"n_pass"`
	NCEX   int `json:"n_cex"`
	NError int `json:"n_error"`
	// NStatic counts verdicts (across all three classes) discharged by
	// the static pre-verification pass without any state-space search.
	// It is an overlay on the other counters, not a fourth class: a
	// statically proven property still counts in NPass.
	NStatic int `json:"n_static"`
	// NUnknown counts verdicts a budgeted (anytime) run left undecided.
	// Always zero for unbudgeted runs.
	NUnknown int `json:"n_unknown"`
	// NErrored counts designs (not assertions) whose job failed and was
	// converted to an errored outcome by ErrorPolicyContinue. Like
	// NStatic it is a design-level overlay, not part of Total: an
	// errored design produced no classified assertions. Always zero
	// under the default ErrorPolicyFail.
	NErrored int `json:"n_errored"`
}

// MarshalJSON emits counts plus derived fractions for downstream tooling.
func (m Metrics) MarshalJSON() ([]byte, error) {
	type out struct {
		NPass    int     `json:"n_pass"`
		NCEX     int     `json:"n_cex"`
		NError   int     `json:"n_error"`
		NStatic  int     `json:"n_static"`
		NUnknown int     `json:"n_unknown"`
		NErrored int     `json:"n_errored"`
		Pass     float64 `json:"pass"`
		CEX      float64 `json:"cex"`
		Error    float64 `json:"error"`
		Static   float64 `json:"static"`
		Unknown  float64 `json:"unknown"`
	}
	return json.Marshal(out{
		NPass: m.NPass, NCEX: m.NCEX, NError: m.NError, NStatic: m.NStatic, NUnknown: m.NUnknown,
		NErrored: m.NErrored,
		Pass:     m.Pass(), CEX: m.CEX(), Error: m.Error(), Static: m.Static(), Unknown: m.Unknown(),
	})
}

// Add accumulates one verdict.
func (m *Metrics) Add(v Verdict) {
	switch v {
	case VerdictPass:
		m.NPass++
	case VerdictCEX:
		m.NCEX++
	case VerdictUnknown:
		m.NUnknown++
	default:
		m.NError++
	}
}

// Total is the number of classified assertions.
func (m Metrics) Total() int { return m.NPass + m.NCEX + m.NError + m.NUnknown }

// Pass is the fraction of valid (incl. vacuous) assertions.
func (m Metrics) Pass() float64 { return frac(m.NPass, m.Total()) }

// CEX is the fraction of refuted assertions.
func (m Metrics) CEX() float64 { return frac(m.NCEX, m.Total()) }

// Error is the fraction of syntactically/semantically broken assertions.
func (m Metrics) Error() float64 { return frac(m.NError, m.Total()) }

// Static is the fraction of verdicts discharged by the static
// pre-verification pass.
func (m Metrics) Static() float64 { return frac(m.NStatic, m.Total()) }

// Unknown is the fraction of verdicts a budgeted run left undecided.
func (m Metrics) Unknown() float64 { return frac(m.NUnknown, m.Total()) }

func frac(n, d int) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

func (m Metrics) String() string {
	s := fmt.Sprintf("pass=%.3f cex=%.3f error=%.3f", m.Pass(), m.CEX(), m.Error())
	if m.NUnknown != 0 {
		s += fmt.Sprintf(" unknown=%.3f", m.Unknown())
	}
	s += fmt.Sprintf(" (n=%d)", m.Total())
	if m.NErrored != 0 {
		s += fmt.Sprintf(" [%d designs errored]", m.NErrored)
	}
	return s
}

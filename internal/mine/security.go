package mine

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"assertionbench/internal/sim"
	"assertionbench/internal/sva"
	"assertionbench/internal/verilog"
)

// This file implements the paper's future-work direction (iii): mining
// security assertions. Two mechanisms:
//
//  1. Security templates over role-classified signals (locks/privileges
//     vs data), screened on traces and verified by FPV — producing
//     assertions like "locked == 1 |-> data_out == 0".
//  2. A two-trace information-flow (taint) check in the spirit of
//     Isadora [34]: simulate stimulus pairs differing only in a secret
//     input and report observation points where the secret leaks while
//     the design claims to be locked. Leak-freedom is a hyperproperty the
//     single-trace SVA subset cannot express, so it is reported directly
//     rather than as an assertion.

// secRole classifies signals by name for template instantiation.
func isPrivilegeName(name string) bool {
	l := strings.ToLower(name)
	for _, frag := range []string{"lock", "priv", "grant", "super", "auth", "secure", "prot"} {
		if strings.Contains(l, frag) {
			return true
		}
	}
	return false
}

func isSecretName(name string) bool {
	l := strings.ToLower(name)
	for _, frag := range []string{"key", "secret", "data_in", "din", "token"} {
		if strings.Contains(l, frag) {
			return true
		}
	}
	return false
}

// Security mines lock/privilege-oriented assertions: outputs forced safe
// while a privilege signal is deasserted, privileges cleared by reset,
// and no privilege without a preceding request. Output is FPV-verified.
func Security(ctx context.Context, nl *verilog.Netlist, opt Options) ([]Mined, error) {
	opt = opt.withDefaults()
	cands, err := securityCandidates(nl, opt)
	if err != nil {
		return nil, err
	}
	return dedupeAndVerify(ctx, nl, cands, opt)
}

// securityCandidates instantiates and screens Security's templates into
// unverified candidates, in the order the verification filter considers
// them.
func securityCandidates(nl *verilog.Netlist, opt Options) ([]candidate, error) {
	tr, err := sim.RandomTrace(nl, opt.TraceCycles, 2, opt.Seed)
	if err != nil {
		return nil, fmt.Errorf("mine: trace generation failed: %w", err)
	}
	var privs []int
	for _, n := range nl.Nets {
		if n.Width == 1 && !n.IsClock && isPrivilegeName(n.Name) && !strings.Contains(n.Name, ".") {
			privs = append(privs, n.Index)
		}
	}
	var cands []candidate
	atomExpr := func(net int, val uint64) verilog.Expr {
		return &verilog.Binary{Op: "==",
			X: &verilog.Ident{Name: nl.Nets[net].Name},
			Y: &verilog.Number{Value: val, Width: nl.Nets[net].Width}}
	}
	for _, p := range privs {
		// Safe-when-locked: while p holds the "locked" polarity, each
		// output stays at its observed safe constant.
		for _, polarity := range []uint64{0, 1} {
			for _, o := range nl.Outputs {
				if o == p || nl.Nets[o].Width > 16 {
					continue
				}
				val, support, ok := constantUnder(tr, p, polarity, o)
				if !ok || support < opt.MinSupport {
					continue
				}
				a := &sva.Assertion{
					Ante: []sva.Step{{Expr: atomExpr(p, polarity)}},
					Cons: []sva.Step{{Expr: atomExpr(o, val)}},
				}
				a.Source = a.String()
				cands = append(cands, candidate{a: a, support: support})
			}
		}
		// Reset returns the privilege state to its safe value.
		for _, r := range nl.Inputs {
			if nl.Nets[r].Width != 1 || !isResetLikeName(nl.Nets[r].Name) {
				continue
			}
			for _, safe := range []uint64{0, 1} {
				support, violated := screenSimple(tr, atom{net: r, val: 1}, atom{net: p, val: safe}, 1)
				if violated || support < opt.MinSupport {
					continue
				}
				a := &sva.Assertion{
					Ante:       []sva.Step{{Expr: atomExpr(r, 1)}},
					Cons:       []sva.Step{{Expr: atomExpr(p, safe)}},
					NonOverlap: true,
				}
				a.Source = a.String()
				cands = append(cands, candidate{a: a, support: support})
			}
		}
		// No privilege without request: $rose(p) |-> $past(req)==1 for
		// 1-bit request-like inputs.
		for _, q := range nl.Inputs {
			nq := nl.Nets[q]
			if nq.Width != 1 || !strings.Contains(strings.ToLower(nq.Name), "req") {
				continue
			}
			support, ok := screenRoseImpliesPast(tr, p, q)
			if !ok || support < 2 {
				continue
			}
			a := &sva.Assertion{
				Ante: []sva.Step{{Expr: &verilog.Call{Name: "$rose",
					Args: []verilog.Expr{&verilog.Ident{Name: nl.Nets[p].Name}}}}},
				Cons: []sva.Step{{Expr: &verilog.Binary{Op: "==",
					X: &verilog.Call{Name: "$past", Args: []verilog.Expr{&verilog.Ident{Name: nq.Name}}},
					Y: &verilog.Number{Value: 1, Width: 1}}}},
			}
			a.Source = a.String()
			cands = append(cands, candidate{a: a, support: support})
		}
	}
	return cands, nil
}

// constantUnder reports the value o held whenever p==polarity, if unique.
func constantUnder(tr *sim.Trace, p int, polarity uint64, o int) (uint64, int, bool) {
	var val uint64
	support := 0
	for c := 0; c < tr.Len(); c++ {
		if tr.Value(c, p) != polarity {
			continue
		}
		v := tr.Value(c, o)
		if support == 0 {
			val = v
		} else if v != val {
			return 0, support, false
		}
		support++
	}
	return val, support, support > 0
}

func screenRoseImpliesPast(tr *sim.Trace, p, q int) (int, bool) {
	support := 0
	for c := 1; c < tr.Len(); c++ {
		if tr.Value(c, p) == 1 && tr.Value(c-1, p) == 0 {
			support++
			if tr.Value(c-1, q) != 1 {
				return support, false
			}
		}
	}
	return support, true
}

func isResetLikeName(name string) bool {
	l := strings.ToLower(name)
	return strings.Contains(l, "rst") || strings.Contains(l, "reset")
}

// Leak is one information-flow violation found by the taint check.
type Leak struct {
	// Secret and Observable name the tainted input and the leaking net.
	Secret     string
	Observable string
	// Cycle is when the divergence was observed; GuardName/GuardValue the
	// privilege condition under which it happened.
	Cycle      int
	GuardName  string
	GuardValue uint64
}

func (l Leak) String() string {
	return fmt.Sprintf("secret %s leaks to %s at cycle %d while %s == %d",
		l.Secret, l.Observable, l.Cycle, l.GuardName, l.GuardValue)
}

// TaintCheck runs the two-trace information-flow analysis: for every
// (secret input, guard) pair, stimulus pairs identical except in the
// secret are simulated; any output divergence at a cycle where the guard
// holds its locked polarity is a leak. guard may be "" to check
// unconditional non-interference. Cancelling ctx aborts the remaining
// stimulus runs with ctx.Err().
func TaintCheck(ctx context.Context, nl *verilog.Netlist, guardName string, lockedValue uint64, runs, depth int, seed int64) ([]Leak, error) {
	guard := -1
	if guardName != "" {
		guard = nl.NetIndex(guardName)
		if guard < 0 {
			return nil, fmt.Errorf("mine: no net named %q", guardName)
		}
	}
	var secrets []int
	for _, i := range nl.Inputs {
		if isSecretName(nl.Nets[i].Name) {
			secrets = append(secrets, i)
		}
	}
	if len(secrets) == 0 {
		return nil, fmt.Errorf("mine: design has no secret-classified inputs")
	}
	var leaks []Leak
	seen := map[string]bool{}
	rng := rand.New(rand.NewSource(seed))
	for _, secret := range secrets {
		secPos := -1
		for k, idx := range nl.Inputs {
			if idx == secret {
				secPos = k
			}
		}
		for run := 0; run < runs; run++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			a := sim.New(nl)
			b := sim.New(nl)
			for t := 0; t < depth; t++ {
				vals := sim.RandomInputs(nl, rng)
				// Hold resets early so the lock state machine initializes.
				for k, idx := range nl.Inputs {
					if isResetLikeName(nl.Nets[idx].Name) {
						if t < 2 {
							vals[k] = 1
						} else {
							vals[k] = 0
						}
					}
				}
				valsB := append([]uint64{}, vals...)
				valsB[secPos] = rng.Uint64() & nl.Nets[secret].Mask()
				if err := a.SetInputs(vals); err != nil {
					return nil, err
				}
				if err := b.SetInputs(valsB); err != nil {
					return nil, err
				}
				a.Settle()
				b.Settle()
				// Flows are flagged only while BOTH traces sit in the
				// locked state: divergence reachable through the
				// legitimate unlock channel (e.g. a key input changing
				// whether unlocking succeeds) is authorized flow.
				guarded := guard < 0 ||
					(a.ValueIdx(guard) == lockedValue && b.ValueIdx(guard) == lockedValue)
				if guarded && vals[secPos] != valsB[secPos] {
					for _, o := range nl.Outputs {
						if o == secret {
							continue
						}
						if a.ValueIdx(o) != b.ValueIdx(o) {
							key := nl.Nets[secret].Name + ">" + nl.Nets[o].Name
							if !seen[key] {
								seen[key] = true
								leaks = append(leaks, Leak{
									Secret:     nl.Nets[secret].Name,
									Observable: nl.Nets[o].Name,
									Cycle:      t,
									GuardName:  guardName,
									GuardValue: lockedValue,
								})
							}
						}
					}
				}
				a.Step()
				b.Step()
			}
		}
	}
	sort.Slice(leaks, func(i, j int) bool {
		if leaks[i].Secret != leaks[j].Secret {
			return leaks[i].Secret < leaks[j].Secret
		}
		return leaks[i].Observable < leaks[j].Observable
	})
	return leaks, nil
}

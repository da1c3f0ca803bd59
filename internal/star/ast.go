package star

import (
	"fmt"
	"strconv"
	"strings"
)

// RuleSet is a named collection of STARs — the optimizer's repertoire as
// data. Rule names are unique; later definitions replace earlier ones, which
// is how a Database Customizer overrides a built-in strategy.
type RuleSet struct {
	rules map[string]*Rule
	order []string
	// redefined records same-source redefinitions (see Redefinition); the
	// parser populates it so the linter can flag definitions that silently
	// drop alternatives. Merge does not record: overlaying one rule set on
	// another is the intended customization mechanism.
	redefined []Redefinition
}

// Redefinition records one rule definition that replaced an earlier
// definition of the same name within a single parsed source — usually a
// copy-paste mistake, since the earlier definition's alternatives are
// silently dropped.
type Redefinition struct {
	// Name is the redefined rule's name.
	Name string
	// Pos locates the replacing definition.
	Pos Pos
	// PrevPos locates the replaced definition.
	PrevPos Pos
	// PrevAlts and NewAlts count the alternatives dropped and kept.
	PrevAlts, NewAlts int
}

// NewRuleSet returns an empty rule set.
func NewRuleSet() *RuleSet {
	return &RuleSet{rules: map[string]*Rule{}}
}

// Add registers a rule, replacing any rule of the same name.
func (rs *RuleSet) Add(r *Rule) {
	if _, exists := rs.rules[r.Name]; !exists {
		rs.order = append(rs.order, r.Name)
	}
	for i, alt := range r.Alts {
		if alt.origin == "" {
			alt.origin = r.Name + "#" + strconv.Itoa(i+1)
		}
	}
	rs.rules[r.Name] = r
}

// addRecordingRedefinition is Add for the parser: a replacement within one
// source file is recorded for the linter's hygiene pass.
func (rs *RuleSet) addRecordingRedefinition(r *Rule) {
	if prev, exists := rs.rules[r.Name]; exists {
		rs.redefined = append(rs.redefined, Redefinition{
			Name: r.Name, Pos: r.Pos, PrevPos: prev.Pos,
			PrevAlts: len(prev.Alts), NewAlts: len(r.Alts),
		})
	}
	rs.Add(r)
}

// Redefined returns the same-source redefinitions recorded at parse time.
func (rs *RuleSet) Redefined() []Redefinition {
	return append([]Redefinition(nil), rs.redefined...)
}

// Get returns the named rule, or nil.
func (rs *RuleSet) Get(name string) *Rule { return rs.rules[name] }

// Names returns the rule names in definition order.
func (rs *RuleSet) Names() []string { return append([]string(nil), rs.order...) }

// Merge copies every rule of o into rs (o's rules win name clashes).
func (rs *RuleSet) Merge(o *RuleSet) {
	for _, name := range o.order {
		rs.Add(o.rules[name])
	}
}

// Validate checks that every STAR referenced by a rule body resolves to a
// rule, a LOLEPOP builder, or a helper function — the paper leaves "how to
// verify that any given set of STARs is correct" open; undefined references
// and ill-formed arities are the checkable part.
//
// Validate is a thin rendering of the reference pass shared with the
// starcheck linter (CheckRefs), so the two cannot drift; the linter adds
// reachability, termination, coverage, and hygiene passes on top. Builders
// and helpers known only by predicate have unknown arity here; use
// Engine.Validate to arity-check against the engine's signature table.
func (rs *RuleSet) Validate(isBuilder, isHelper func(string) bool) error {
	lookup := func(name string) (Signature, bool) {
		if isBuilder != nil && isBuilder(name) {
			return Signature{Name: name, ArityUnknown: true}, true
		}
		if isHelper != nil && isHelper(name) {
			return Signature{Name: name, ArityUnknown: true}, true
		}
		return Signature{}, false
	}
	return refDiagsToError(CheckRefs(rs, lookup))
}

// refDiagsToError renders reference diagnostics as a single error, nil when
// there are none.
func refDiagsToError(diags []RefDiag) error {
	if len(diags) == 0 {
		return nil
	}
	msgs := make([]string, len(diags))
	for i, d := range diags {
		msgs[i] = d.Msg
	}
	return fmt.Errorf("star: invalid rule set:\n  %s", strings.Join(msgs, "\n  "))
}

// Rule is one STAR: a named, parametrized non-terminal with alternative
// definitions and optional where-bindings shared by all alternatives.
type Rule struct {
	// Name is the non-terminal's name.
	Name string
	// Params are the parameter names, bound positionally at reference.
	Params []string
	// Exclusive distinguishes the paper's `{` (exclusive: the first
	// alternative whose condition holds is taken) from `[` (inclusive:
	// every alternative whose condition holds contributes plans).
	Exclusive bool
	// Alts are the alternative definitions in order.
	Alts []*Alt
	// Where are shared bindings, evaluated in order after parameter
	// binding and visible to conditions and bodies.
	Where []Let
	// Doc is the comment block preceding the rule in its source file.
	// A doc line reading "lint: root" marks the rule as a linter entry
	// point (see IsRoot).
	Doc string
	// Pos locates the rule's name in its source.
	Pos Pos
}

// IsRoot reports whether the rule's doc comment carries the `lint: root`
// pragma: the rule is an entry point referenced from outside the rule set
// (directly by the driver or by an extension), so the linter must not flag
// it — or anything it references — as unreachable.
func (r *Rule) IsRoot() bool {
	for _, line := range strings.Split(r.Doc, "\n") {
		line = strings.ReplaceAll(strings.TrimSpace(line), " ", "")
		if line == "lint:root" {
			return true
		}
	}
	return false
}

// Let is one where-binding: Name = Expr.
type Let struct {
	Name string
	Expr RExpr
	// Pos locates the binding's name.
	Pos Pos
}

// Alt is one alternative definition: a body guarded by an optional condition
// of applicability. Otherwise marks the paper's OTHERWISE guard, true iff no
// earlier alternative's condition held.
type Alt struct {
	// Body is the plan-constructing expression.
	Body RExpr
	// Cond guards applicability; nil means unconditional.
	Cond RExpr
	// Otherwise marks an OTHERWISE alternative.
	Otherwise bool
	// Pos locates the alternative's first token.
	Pos Pos
	// origin is the precomputed "<rule>#<n>" provenance tag stamped onto
	// plans the alternative produces (filled by RuleSet.Add so EvalRule
	// does not format it per firing).
	origin string
}

// Origin returns the "<rule>#<n>" provenance tag plans built by the
// alternative carry (plan.Node.Origin).
func (a *Alt) Origin() string { return a.origin }

// WalkCalls invokes f for every Call node in the rule's alternatives
// (bodies and conditions) and where-bindings, in source order. The linter's
// graph passes are built on it.
func (r *Rule) WalkCalls(f func(*Call)) { r.walkCalls(f) }

func (r *Rule) walkCalls(f func(*Call)) {
	var rec func(e RExpr)
	rec = func(e RExpr) {
		switch n := e.(type) {
		case *Call:
			f(n)
			for _, a := range n.Args {
				rec(a)
			}
		case *Annot:
			rec(n.Kid)
			for _, ri := range n.Reqs {
				if ri.Val != nil {
					rec(ri.Val)
				}
			}
		case *Forall:
			rec(n.Set)
			rec(n.Body)
			if n.Cond != nil {
				rec(n.Cond)
			}
		case *Logic:
			for _, k := range n.Kids {
				rec(k)
			}
		case *NotExpr:
			rec(n.Kid)
		}
	}
	for _, a := range r.Alts {
		rec(a.Body)
		if a.Cond != nil {
			rec(a.Cond)
		}
	}
	for _, l := range r.Where {
		rec(l.Expr)
	}
}

// RExpr is a rule-language expression node. Implementations: Ident, StrLit,
// NumLit, EmptySet, AllCols, Call, Annot, Forall, Logic, NotExpr.
type RExpr interface {
	// String renders the expression in DSL syntax (round-trippable).
	String() string
}

// ExprPos returns the source position of an expression, falling back to the
// zero Pos for nodes that carry none (literals).
func ExprPos(e RExpr) Pos {
	switch n := e.(type) {
	case *Ident:
		return n.Pos
	case *Call:
		return n.Pos
	case *Annot:
		return ExprPos(n.Kid)
	case *Forall:
		return n.Pos
	case *NotExpr:
		return ExprPos(n.Kid)
	case *Logic:
		if len(n.Kids) > 0 {
			return ExprPos(n.Kids[0])
		}
	}
	return Pos{}
}

// Ident references a parameter or where-binding.
type Ident struct {
	Name string
	// Pos locates the identifier.
	Pos Pos
}

// String implements RExpr.
func (i *Ident) String() string { return i.Name }

// StrLit is a quoted string literal.
type StrLit struct{ Val string }

// String implements RExpr.
func (s *StrLit) String() string { return "'" + s.Val + "'" }

// NumLit is a numeric literal.
type NumLit struct{ Val float64 }

// String implements RExpr.
func (n *NumLit) String() string { return strings.TrimSuffix(fmt.Sprintf("%g", n.Val), ".0") }

// EmptySet is the `{}` literal: the empty predicate set (the paper's φ).
type EmptySet struct{}

// String implements RExpr.
func (e *EmptySet) String() string { return "{}" }

// AllCols is the `*` literal: all columns of the stream.
type AllCols struct{}

// String implements RExpr.
func (a *AllCols) String() string { return "*" }

// Call references a STAR, a LOLEPOP, Glue, or a helper function by name.
type Call struct {
	Name string
	Args []RExpr
	// Pos locates the called name.
	Pos Pos
}

// String implements RExpr.
func (c *Call) String() string {
	parts := make([]string, len(c.Args))
	for i, a := range c.Args {
		parts[i] = a.String()
	}
	return c.Name + "(" + strings.Join(parts, ", ") + ")"
}

// ReqItem is one required property inside an annotation's brackets.
type ReqItem struct {
	// Key is one of "order", "site", "temp", "paths".
	Key string
	// Val is the requirement's value expression; nil for the bare "temp"
	// flag.
	Val RExpr
	// Pos locates the requirement's key.
	Pos Pos
}

// Annot attaches required properties to a stream-valued expression — the
// paper's square-bracket notation, e.g. T2[order = sortCols(SP, T2)].
type Annot struct {
	Kid  RExpr
	Reqs []ReqItem
}

// String implements RExpr.
func (a *Annot) String() string {
	parts := make([]string, len(a.Reqs))
	for i, r := range a.Reqs {
		if r.Val == nil {
			parts[i] = r.Key
		} else {
			parts[i] = r.Key + " = " + r.Val.String()
		}
	}
	return a.Kid.String() + "[" + strings.Join(parts, ", ") + "]"
}

// Forall is the ∀ clause: evaluate Body once per element of Set with Var
// bound, unioning the results (Section 2.2's IndexAccess STAR). Cond, when
// present, guards each element — the paper's "∀a ∈ A: ... IF order ⊑ a"
// shape, where the condition references the bound variable.
type Forall struct {
	Var  string
	Set  RExpr
	Body RExpr
	Cond RExpr
	// Pos locates the `forall` keyword.
	Pos Pos
}

// String implements RExpr.
func (f *Forall) String() string {
	s := "forall " + f.Var + " in " + f.Set.String() + ": " + f.Body.String()
	if f.Cond != nil {
		s += " if " + f.Cond.String()
	}
	return s
}

// Logic is an n-ary and/or over condition expressions.
type Logic struct {
	// OpAnd selects conjunction; otherwise disjunction.
	OpAnd bool
	Kids  []RExpr
}

// String implements RExpr.
func (l *Logic) String() string {
	op := " or "
	if l.OpAnd {
		op = " and "
	}
	parts := make([]string, len(l.Kids))
	for i, k := range l.Kids {
		parts[i] = k.String()
	}
	return "(" + strings.Join(parts, op) + ")"
}

// NotExpr negates a condition.
type NotExpr struct{ Kid RExpr }

// String implements RExpr.
func (n *NotExpr) String() string { return "not " + n.Kid.String() }

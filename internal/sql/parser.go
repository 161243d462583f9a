package sql

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/types"
)

// Parse parses one SQL statement.
func Parse(src string) (Statement, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: src}
	st, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	p.accept(";")
	if !p.atEOF() {
		return nil, p.errf("unexpected %q after statement", p.cur().Text)
	}
	return st, nil
}

// ParseScript splits src on top-level semicolons and parses each statement.
func ParseScript(src string) ([]Statement, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: src}
	var out []Statement
	for !p.atEOF() {
		if p.accept(";") {
			continue
		}
		st, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		out = append(out, st)
		if !p.accept(";") && !p.atEOF() {
			return nil, p.errf("expected ';' between statements, got %q", p.cur().Text)
		}
	}
	return out, nil
}

type parser struct {
	toks []Token
	pos  int
	src  string
}

func (p *parser) cur() Token  { return p.toks[p.pos] }
func (p *parser) atEOF() bool { return p.cur().Kind == TokEOF }

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("sql: %s (near offset %d)", fmt.Sprintf(format, args...), p.cur().Pos)
}

// at reports whether the current token is the given keyword or operator.
func (p *parser) at(text string) bool {
	t := p.cur()
	return (t.Kind == TokKeyword || t.Kind == TokOp) && t.Text == text
}

func (p *parser) atAny(texts ...string) bool {
	for _, t := range texts {
		if p.at(t) {
			return true
		}
	}
	return false
}

// accept consumes the token if it matches.
func (p *parser) accept(text string) bool {
	if p.at(text) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(text string) error {
	if !p.accept(text) {
		return p.errf("expected %q, got %q", text, p.cur().Text)
	}
	return nil
}

// ident consumes an identifier (or keyword used as a name) and returns it
// lower-cased.
func (p *parser) ident() (string, error) {
	t := p.cur()
	if t.Kind == TokIdent || t.Kind == TokKeyword {
		p.pos++
		return strings.ToLower(t.Text), nil
	}
	return "", p.errf("expected identifier, got %q", t.Text)
}

func (p *parser) parseStatement() (Statement, error) {
	switch {
	case p.at("SELECT") || p.at("WITH") || p.at("("):
		return p.parseSelect()
	case p.at("INSERT"):
		return p.parseInsert(true)
	case p.at("FROM"):
		return p.parseMultiInsert()
	case p.at("UPDATE"):
		return p.parseUpdate()
	case p.at("DELETE"):
		return p.parseDelete()
	case p.at("MERGE"):
		return p.parseMerge()
	case p.at("CREATE"):
		return p.parseCreate()
	case p.at("ALTER"):
		return p.parseAlter()
	case p.at("DROP"):
		return p.parseDrop()
	case p.at("ADD"):
		return p.parseAddRule()
	case p.at("PREPARE"):
		return p.parsePrepare()
	case p.at("EXECUTE"):
		return p.parseExecute()
	case p.at("DEALLOCATE"):
		p.pos++
		p.accept("PREPARE")
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &DeallocateStmt{Name: name}, nil
	case p.at("SHOW"):
		p.pos++
		what, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &ShowStmt{What: what}, nil
	case p.at("EXPLAIN"):
		p.pos++
		inner, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		return &ExplainStmt{Inner: inner}, nil
	case p.at("SET"):
		return p.parseSet()
	case p.at("ANALYZE"):
		return p.parseAnalyze()
	case p.at("USE"):
		p.pos++
		db, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &UseStmt{DB: db}, nil
	}
	return nil, p.errf("unsupported statement start %q", p.cur().Text)
}

// ---- SELECT ----

// parsePrepare parses PREPARE name AS <select>.
func (p *parser) parsePrepare() (Statement, error) {
	p.pos++ // PREPARE
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expect("AS"); err != nil {
		return nil, err
	}
	inner, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	sel, ok := inner.(*SelectStmt)
	if !ok {
		return nil, p.errf("PREPARE supports SELECT statements, got %T", inner)
	}
	return &PrepareStmt{Name: name, Select: sel}, nil
}

// parseExecute parses EXECUTE name [(arg, ...)].
func (p *parser) parseExecute() (Statement, error) {
	p.pos++ // EXECUTE
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	st := &ExecuteStmt{Name: name}
	if p.accept("(") {
		if !p.at(")") {
			for {
				a, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				st.Args = append(st.Args, a)
				if !p.accept(",") {
					break
				}
			}
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
	}
	return st, nil
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	st := &SelectStmt{Limit: -1}
	if p.accept("WITH") {
		for {
			name, err := p.ident()
			if err != nil {
				return nil, err
			}
			if err := p.expect("AS"); err != nil {
				return nil, err
			}
			if err := p.expect("("); err != nil {
				return nil, err
			}
			sub, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			st.With = append(st.With, CTE{Name: name, Select: sub})
			if !p.accept(",") {
				break
			}
		}
	}
	body, err := p.parseQueryExpr()
	if err != nil {
		return nil, err
	}
	st.Body = body
	if p.accept("ORDER") {
		if err := p.expect("BY"); err != nil {
			return nil, err
		}
		items, err := p.parseOrderItems()
		if err != nil {
			return nil, err
		}
		st.OrderBy = items
	}
	if p.accept("LIMIT") {
		t := p.cur()
		if t.Kind != TokNumber {
			return nil, p.errf("expected LIMIT count, got %q", t.Text)
		}
		n, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, p.errf("bad LIMIT %q", t.Text)
		}
		p.pos++
		st.Limit = n
		if p.accept("OFFSET") {
			t := p.cur()
			if t.Kind != TokNumber {
				return nil, p.errf("expected OFFSET count, got %q", t.Text)
			}
			off, err := strconv.ParseInt(t.Text, 10, 64)
			if err != nil {
				return nil, p.errf("bad OFFSET %q", t.Text)
			}
			p.pos++
			st.Offset = off
		}
	}
	return st, nil
}

func (p *parser) parseOrderItems() ([]OrderItem, error) {
	var items []OrderItem
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		it := OrderItem{Expr: e}
		if p.accept("DESC") {
			it.Desc = true
		} else {
			p.accept("ASC")
		}
		if p.accept("NULLS") {
			first := p.accept("FIRST")
			if !first {
				if err := p.expect("LAST"); err != nil {
					return nil, err
				}
			}
			it.NullsFirst = &first
		}
		items = append(items, it)
		if !p.accept(",") {
			break
		}
	}
	return items, nil
}

// parseQueryExpr handles UNION/EXCEPT (lowest) over INTERSECT over terms.
func (p *parser) parseQueryExpr() (QueryExpr, error) {
	left, err := p.parseIntersectExpr()
	if err != nil {
		return nil, err
	}
	for {
		var kind SetOpKind
		switch {
		case p.at("UNION"):
			kind = SetUnion
		case p.at("EXCEPT") || p.at("MINUS"):
			kind = SetExcept
		default:
			return left, nil
		}
		p.pos++
		all := p.accept("ALL")
		if !all {
			p.accept("DISTINCT")
		}
		right, err := p.parseIntersectExpr()
		if err != nil {
			return nil, err
		}
		left = &SetOp{Kind: kind, All: all, Left: left, Right: right}
	}
}

func (p *parser) parseIntersectExpr() (QueryExpr, error) {
	left, err := p.parseQueryTerm()
	if err != nil {
		return nil, err
	}
	for p.at("INTERSECT") {
		p.pos++
		all := p.accept("ALL")
		if !all {
			p.accept("DISTINCT")
		}
		right, err := p.parseQueryTerm()
		if err != nil {
			return nil, err
		}
		left = &SetOp{Kind: SetIntersect, All: all, Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseQueryTerm() (QueryExpr, error) {
	if p.accept("(") {
		q, err := p.parseQueryExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		return q, nil
	}
	return p.parseSelectCore()
}

func (p *parser) parseSelectCore() (*SelectCore, error) {
	if err := p.expect("SELECT"); err != nil {
		return nil, err
	}
	core := &SelectCore{}
	if p.accept("DISTINCT") {
		core.Distinct = true
	} else {
		p.accept("ALL")
	}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		core.Items = append(core.Items, item)
		if !p.accept(",") {
			break
		}
	}
	if p.accept("FROM") {
		from, err := p.parseTableRefList()
		if err != nil {
			return nil, err
		}
		core.From = from
	}
	if p.accept("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		core.Where = e
	}
	if p.accept("GROUP") {
		if err := p.expect("BY"); err != nil {
			return nil, err
		}
		if err := p.parseGroupBy(core); err != nil {
			return nil, err
		}
	}
	if p.accept("HAVING") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		core.Having = e
	}
	return core, nil
}

func (p *parser) parseGroupBy(core *SelectCore) error {
	switch {
	case p.accept("GROUPING"):
		if err := p.expect("SETS"); err != nil {
			return err
		}
		if err := p.expect("("); err != nil {
			return err
		}
		for {
			if err := p.expect("("); err != nil {
				return err
			}
			var set []Expr
			if !p.at(")") {
				for {
					e, err := p.parseExpr()
					if err != nil {
						return err
					}
					set = append(set, e)
					if !p.accept(",") {
						break
					}
				}
			}
			if err := p.expect(")"); err != nil {
				return err
			}
			core.GroupingSets = append(core.GroupingSets, set)
			if !p.accept(",") {
				break
			}
		}
		if err := p.expect(")"); err != nil {
			return err
		}
		core.GroupBy = unionOfSets(core.GroupingSets)
		return nil
	case p.accept("ROLLUP"):
		exprs, err := p.parseParenExprList()
		if err != nil {
			return err
		}
		core.GroupBy = exprs
		for i := len(exprs); i >= 0; i-- {
			core.GroupingSets = append(core.GroupingSets, exprs[:i])
		}
		return nil
	case p.accept("CUBE"):
		exprs, err := p.parseParenExprList()
		if err != nil {
			return err
		}
		core.GroupBy = exprs
		n := len(exprs)
		for mask := (1 << n) - 1; mask >= 0; mask-- {
			var set []Expr
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 {
					set = append(set, exprs[i])
				}
			}
			core.GroupingSets = append(core.GroupingSets, set)
		}
		return nil
	}
	for {
		e, err := p.parseExpr()
		if err != nil {
			return err
		}
		core.GroupBy = append(core.GroupBy, e)
		if !p.accept(",") {
			break
		}
	}
	return nil
}

func unionOfSets(sets [][]Expr) []Expr {
	var out []Expr
	seen := map[string]bool{}
	for _, s := range sets {
		for _, e := range s {
			k := FormatExpr(e)
			if !seen[k] {
				seen[k] = true
				out = append(out, e)
			}
		}
	}
	return out
}

func (p *parser) parseParenExprList() ([]Expr, error) {
	if err := p.expect("("); err != nil {
		return nil, err
	}
	var out []Expr
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		out = append(out, e)
		if !p.accept(",") {
			break
		}
	}
	return out, p.expect(")")
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	if p.accept("*") {
		return SelectItem{Star: true}, nil
	}
	// t.* form: ident '.' '*'
	if p.cur().Kind == TokIdent && p.pos+2 < len(p.toks) &&
		p.toks[p.pos+1].Kind == TokOp && p.toks[p.pos+1].Text == "." &&
		p.toks[p.pos+2].Kind == TokOp && p.toks[p.pos+2].Text == "*" {
		name := strings.ToLower(p.cur().Text)
		p.pos += 3
		return SelectItem{TableStar: name}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.accept("AS") {
		a, err := p.ident()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = a
	} else if p.cur().Kind == TokIdent {
		item.Alias = strings.ToLower(p.cur().Text)
		p.pos++
	}
	return item, nil
}

// ---- FROM clause ----

func (p *parser) parseTableRefList() (TableRef, error) {
	left, err := p.parseJoinChain()
	if err != nil {
		return nil, err
	}
	for p.accept(",") {
		right, err := p.parseJoinChain()
		if err != nil {
			return nil, err
		}
		left = &Join{Kind: JoinCross, Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseJoinChain() (TableRef, error) {
	left, err := p.parseTablePrimary()
	if err != nil {
		return nil, err
	}
	for {
		kind, ok := p.peekJoin()
		if !ok {
			return left, nil
		}
		right, err := p.parseTablePrimary()
		if err != nil {
			return nil, err
		}
		j := &Join{Kind: kind, Left: left, Right: right}
		if p.accept("ON") {
			cond, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			j.On = cond
		} else if kind != JoinCross {
			return nil, p.errf("expected ON for %s JOIN", kind)
		}
		left = j
	}
}

// peekJoin consumes the join tokens if present, returning the join kind.
func (p *parser) peekJoin() (JoinKind, bool) {
	switch {
	case p.accept("JOIN"):
		return JoinInner, true
	case p.accept("INNER"):
		p.expect("JOIN")
		return JoinInner, true
	case p.accept("CROSS"):
		p.expect("JOIN")
		return JoinCross, true
	case p.accept("LEFT"):
		if p.accept("SEMI") {
			p.expect("JOIN")
			return JoinSemi, true
		}
		if p.accept("ANTI") {
			p.expect("JOIN")
			return JoinAnti, true
		}
		p.accept("OUTER")
		p.expect("JOIN")
		return JoinLeft, true
	case p.accept("RIGHT"):
		p.accept("OUTER")
		p.expect("JOIN")
		return JoinRight, true
	case p.accept("FULL"):
		p.accept("OUTER")
		p.expect("JOIN")
		return JoinFull, true
	}
	return 0, false
}

func (p *parser) parseTablePrimary() (TableRef, error) {
	if p.accept("(") {
		sub, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		alias := ""
		if p.accept("AS") {
			a, err := p.ident()
			if err != nil {
				return nil, err
			}
			alias = a
		} else if p.cur().Kind == TokIdent {
			alias = strings.ToLower(p.cur().Text)
			p.pos++
		}
		return &SubqueryRef{Select: sub, Alias: alias}, nil
	}
	tn, err := p.parseTableName()
	if err != nil {
		return nil, err
	}
	if p.accept("AS") {
		a, err := p.ident()
		if err != nil {
			return nil, err
		}
		tn.Alias = a
	} else if p.cur().Kind == TokIdent {
		tn.Alias = strings.ToLower(p.cur().Text)
		p.pos++
	}
	return tn, nil
}

func (p *parser) parseTableName() (*TableName, error) {
	first, err := p.ident()
	if err != nil {
		return nil, err
	}
	if p.accept(".") {
		second, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &TableName{DB: first, Name: second}, nil
	}
	return &TableName{Name: first}, nil
}

// ---- Expressions ----

func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.accept("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &BinExpr{Op: "OR", L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.accept("AND") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &BinExpr{Op: "AND", L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.accept("NOT") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "NOT", E: e}, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.atAny("=", "==", "<>", "!=", "<", "<=", ">", ">="):
			op := p.cur().Text
			if op == "==" {
				op = "="
			}
			if op == "!=" {
				op = "<>"
			}
			p.pos++
			right, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			left = &BinExpr{Op: op, L: left, R: right}
		case p.at("IS"):
			p.pos++
			not := p.accept("NOT")
			if err := p.expect("NULL"); err != nil {
				return nil, err
			}
			left = &IsNullExpr{E: left, Not: not}
		case p.at("BETWEEN"):
			p.pos++
			lo, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			if err := p.expect("AND"); err != nil {
				return nil, err
			}
			hi, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			left = &BetweenExpr{E: left, Lo: lo, Hi: hi}
		case p.at("IN"):
			p.pos++
			in, err := p.parseInTail(left, false)
			if err != nil {
				return nil, err
			}
			left = in
		case p.at("LIKE"):
			p.pos++
			pat, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			left = &LikeExpr{E: left, Pattern: pat}
		case p.at("NOT"):
			// e NOT IN / NOT BETWEEN / NOT LIKE
			save := p.pos
			p.pos++
			switch {
			case p.accept("IN"):
				in, err := p.parseInTail(left, true)
				if err != nil {
					return nil, err
				}
				left = in
			case p.accept("BETWEEN"):
				lo, err := p.parseAdditive()
				if err != nil {
					return nil, err
				}
				if err := p.expect("AND"); err != nil {
					return nil, err
				}
				hi, err := p.parseAdditive()
				if err != nil {
					return nil, err
				}
				left = &BetweenExpr{E: left, Lo: lo, Hi: hi, Not: true}
			case p.accept("LIKE"):
				pat, err := p.parseAdditive()
				if err != nil {
					return nil, err
				}
				left = &LikeExpr{E: left, Pattern: pat, Not: true}
			default:
				p.pos = save
				return left, nil
			}
		default:
			return left, nil
		}
	}
}

func (p *parser) parseInTail(left Expr, not bool) (Expr, error) {
	if err := p.expect("("); err != nil {
		return nil, err
	}
	if p.at("SELECT") || p.at("WITH") {
		sub, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		return &InExpr{E: left, Sub: sub, Not: not}, nil
	}
	var list []Expr
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		list = append(list, e)
		if !p.accept(",") {
			break
		}
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	return &InExpr{E: left, List: list, Not: not}, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for p.atAny("+", "-", "||") {
		op := p.cur().Text
		p.pos++
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		left = &BinExpr{Op: op, L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseMultiplicative() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.atAny("*", "/", "%") {
		op := p.cur().Text
		p.pos++
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &BinExpr{Op: op, L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseUnary() (Expr, error) {
	if p.accept("-") {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if lit, ok := e.(*Lit); ok && !lit.Val.Null {
			switch lit.Val.K {
			case types.Int64, types.Int32:
				return &Lit{Val: types.NewBigint(-lit.Val.I)}, nil
			case types.Float64:
				return &Lit{Val: types.NewDouble(-lit.Val.F)}, nil
			case types.Decimal:
				return &Lit{Val: types.NewDecimal(-lit.Val.I, lit.Val.DecimalScale())}, nil
			}
		}
		return &UnaryExpr{Op: "-", E: e}, nil
	}
	p.accept("+")
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch {
	case t.Kind == TokNumber:
		p.pos++
		return numberLit(t.Text)
	case t.Kind == TokString:
		p.pos++
		return &Lit{Val: types.NewString(t.Text)}, nil
	case p.accept("TRUE"):
		return &Lit{Val: types.NewBool(true)}, nil
	case p.accept("FALSE"):
		return &Lit{Val: types.NewBool(false)}, nil
	case p.accept("NULL"):
		return &Lit{Val: types.NullOf(types.Unknown)}, nil
	case p.at("INTERVAL"):
		return p.parseInterval()
	case p.at("CAST"):
		return p.parseCast()
	case p.at("EXTRACT"):
		return p.parseExtract()
	case p.at("CASE"):
		return p.parseCase()
	case p.at("EXISTS"):
		p.pos++
		if err := p.expect("("); err != nil {
			return nil, err
		}
		sub, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		return &ExistsExpr{Sub: sub}, nil
	case p.accept("("):
		if p.at("SELECT") || p.at("WITH") {
			sub, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			return &SubqueryExpr{Sub: sub}, nil
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return e, p.expect(")")
	case t.Kind == TokIdent || t.Kind == TokKeyword:
		return p.parseIdentOrCall()
	}
	return nil, p.errf("unexpected token %q in expression", t.Text)
}

func numberLit(text string) (Expr, error) {
	if strings.ContainsAny(text, "eE") {
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return nil, fmt.Errorf("sql: bad number %q", text)
		}
		return &Lit{Val: types.NewDouble(f)}, nil
	}
	if i := strings.IndexByte(text, '.'); i >= 0 {
		scale := len(text) - i - 1
		d, err := types.ParseDecimal(text, scale)
		if err != nil {
			return nil, err
		}
		return &Lit{Val: d}, nil
	}
	v, err := strconv.ParseInt(text, 10, 64)
	if err != nil {
		f, ferr := strconv.ParseFloat(text, 64)
		if ferr != nil {
			return nil, fmt.Errorf("sql: bad number %q", text)
		}
		return &Lit{Val: types.NewDouble(f)}, nil
	}
	return &Lit{Val: types.NewBigint(v)}, nil
}

func (p *parser) parseInterval() (Expr, error) {
	p.pos++ // INTERVAL
	val, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	unit, err := p.ident()
	if err != nil {
		return nil, err
	}
	unit = strings.TrimSuffix(strings.ToUpper(unit), "S")
	switch unit {
	case "DAY", "MONTH", "YEAR", "HOUR", "MINUTE", "SECOND":
	default:
		return nil, p.errf("unknown interval unit %q", unit)
	}
	return &IntervalExpr{Value: val, Unit: unit}, nil
}

func (p *parser) parseCast() (Expr, error) {
	p.pos++ // CAST
	if err := p.expect("("); err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect("AS"); err != nil {
		return nil, err
	}
	tt, err := p.parseTypeName()
	if err != nil {
		return nil, err
	}
	return &CastExpr{E: e, Type: tt}, p.expect(")")
}

// parseTypeName reads a type like "decimal(7,2)" or "varchar(20)" or "int".
func (p *parser) parseTypeName() (types.T, error) {
	name, err := p.ident()
	if err != nil {
		return types.TUnknown, err
	}
	full := name
	if p.accept("(") {
		full += "("
		for !p.at(")") {
			if p.atEOF() {
				return types.TUnknown, p.errf("unterminated type %q", full)
			}
			full += p.cur().Text
			p.pos++
		}
		full += ")"
		p.pos++
	}
	return types.ParseType(full)
}

func (p *parser) parseExtract() (Expr, error) {
	p.pos++ // EXTRACT
	if err := p.expect("("); err != nil {
		return nil, err
	}
	field, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expect("FROM"); err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &ExtractExpr{Field: field, From: e}, p.expect(")")
}

func (p *parser) parseCase() (Expr, error) {
	p.pos++ // CASE
	ce := &CaseExpr{}
	if !p.at("WHEN") {
		op, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Operand = op
	}
	for p.accept("WHEN") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect("THEN"); err != nil {
			return nil, err
		}
		then, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Whens = append(ce.Whens, When{Cond: cond, Then: then})
	}
	if len(ce.Whens) == 0 {
		return nil, p.errf("CASE requires at least one WHEN")
	}
	if p.accept("ELSE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Else = e
	}
	return ce, p.expect("END")
}

func (p *parser) parseIdentOrCall() (Expr, error) {
	name := strings.ToLower(p.cur().Text)
	p.pos++
	if p.accept(".") {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &Ident{Qualifier: name, Name: col}, nil
	}
	if !p.at("(") {
		return &Ident{Name: name}, nil
	}
	p.pos++ // (
	call := &Call{Name: name}
	if p.accept("*") {
		call.Star = true
	} else if !p.at(")") {
		if p.accept("DISTINCT") {
			call.Distinct = true
		}
		for {
			a, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			call.Args = append(call.Args, a)
			if !p.accept(",") {
				break
			}
		}
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	if p.accept("OVER") {
		spec, err := p.parseWindowSpec()
		if err != nil {
			return nil, err
		}
		call.Over = spec
	}
	return call, nil
}

func (p *parser) parseWindowSpec() (*WindowSpec, error) {
	if err := p.expect("("); err != nil {
		return nil, err
	}
	spec := &WindowSpec{}
	if p.accept("PARTITION") {
		if err := p.expect("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			spec.PartitionBy = append(spec.PartitionBy, e)
			if !p.accept(",") {
				break
			}
		}
	}
	if p.accept("ORDER") {
		if err := p.expect("BY"); err != nil {
			return nil, err
		}
		items, err := p.parseOrderItems()
		if err != nil {
			return nil, err
		}
		spec.OrderBy = items
	}
	// Accept and ignore a frame clause: ROWS|RANGE BETWEEN ... AND ... .
	if p.accept("ROWS") || p.accept("RANGE") {
		depth := 0
		for !p.atEOF() {
			if p.at("(") {
				depth++
			}
			if p.at(")") {
				if depth == 0 {
					break
				}
				depth--
			}
			p.pos++
		}
	}
	return spec, p.expect(")")
}

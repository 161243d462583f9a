package main

import (
	"fmt"
	"hash/fnv"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"repro/internal/types"
)

// rowLines renders each row as one line. Floats keep 12 significant
// digits: parallel partial aggregation may add the same values in another
// order, which moves only the last bits.
func rowLines(rows [][]types.Datum) []string {
	lines := make([]string, len(rows))
	for i, r := range rows {
		var b strings.Builder
		for j, d := range r {
			if j > 0 {
				b.WriteByte('|')
			}
			if d.K == types.Float64 && !d.Null {
				b.WriteString(strconv.FormatFloat(d.F, 'g', 12, 64))
			} else {
				b.WriteString(d.String())
			}
		}
		lines[i] = b.String()
	}
	return lines
}

// rowHash fingerprints a result. ordered keeps row order (the statement
// has an ORDER BY); otherwise rows compare as a multiset.
func rowHash(rows [][]types.Datum, ordered bool) uint64 {
	lines := rowLines(rows)
	if !ordered {
		sort.Strings(lines)
	}
	h := fnv.New64a()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

// subMultiset reports whether every line of sub occurs in super, counting
// repeats.
func subMultiset(sub, super []string) bool {
	n := map[string]int{}
	for _, l := range super {
		n[l]++
	}
	for _, l := range sub {
		if n[l] == 0 {
			return false
		}
		n[l]--
	}
	return true
}

func sameMultiset(a, b []string) bool { return len(a) == len(b) && subMultiset(a, b) }

var trailingLimit = regexp.MustCompile(`(?is)\s+LIMIT\s+(\d+)\s*$`)

// splitLimit returns a statement without its trailing LIMIT and the
// limit, or -1 when it has none.
func splitLimit(sql string) (string, int) {
	m := trailingLimit.FindStringSubmatchIndex(sql)
	if m == nil {
		return sql, -1
	}
	n, err := strconv.Atoi(sql[m[2]:m[3]])
	if err != nil {
		return sql, -1
	}
	return sql[:m[0]], n
}

// hasOrderBy reports whether a statement's outermost query orders its
// rows. An ORDER BY inside a window or a subquery does not count.
func hasOrderBy(sql string) bool { return topLevel(sql, "ORDER BY") >= 0 }

// topLevel returns the offset of the first whole-word occurrence of kw
// outside any parentheses, or -1.
func topLevel(sql, kw string) int {
	word := func(i int) bool {
		if i < 0 || i >= len(sql) {
			return false
		}
		c := sql[i]
		return c == '_' || c >= '0' && c <= '9' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
	}
	depth := 0
	for i := 0; i < len(sql); i++ {
		switch sql[i] {
		case '(':
			depth++
		case ')':
			depth--
		default:
			if depth == 0 && !word(i-1) && !word(i+len(kw)) &&
				i+len(kw) <= len(sql) && strings.EqualFold(sql[i:i+len(kw)], kw) {
				return i
			}
		}
	}
	return -1
}

var direction = regexp.MustCompile(`(?i)\s+(ASC|DESC)$`)

// orderItems returns the expressions of a statement's outermost ORDER BY
// without their ASC/DESC, or nil when it has none.
func orderItems(sql string) []string {
	text, _ := splitLimit(sql)
	i := topLevel(text, "ORDER BY")
	if i < 0 {
		return nil
	}
	body := text[i+len("ORDER BY"):]
	var items []string
	depth, from := 0, 0
	for j := 0; j <= len(body); j++ {
		if j == len(body) || body[j] == ',' && depth == 0 {
			items = append(items, direction.ReplaceAllString(strings.TrimSpace(body[from:j]), ""))
			from = j + 1
			continue
		}
		switch body[j] {
		case '(':
			depth++
		case ')':
			depth--
		}
	}
	return items
}

var columnRef = regexp.MustCompile(`^(?:[A-Za-z_]\w*\.)?([A-Za-z_]\w*)$`)

// columnOf returns the output column an ORDER BY item names, or -1 when
// it names none or more than one.
func columnOf(cols []string, item string) int {
	m := columnRef.FindStringSubmatch(item)
	if m == nil {
		return -1
	}
	found := -1
	for i, c := range cols {
		if strings.EqualFold(c[strings.LastIndexByte(c, '.')+1:], m[1]) {
			if found >= 0 {
				return -1
			}
			found = i
		}
	}
	return found
}

// withKeys adds exprs to the outermost select list of sql as the columns
// hb_key0, hb_key1, ….
func withKeys(sql string, exprs []string) (string, error) {
	from := topLevel(sql, "FROM")
	if from < 0 {
		return "", fmt.Errorf("no FROM in %q", sql)
	}
	var b strings.Builder
	b.WriteString(strings.TrimRight(sql[:from], " \t\n"))
	for k, x := range exprs {
		fmt.Fprintf(&b, ", %s AS hb_key%d", x, k)
	}
	b.WriteString(" ")
	b.WriteString(sql[from:])
	return b.String(), nil
}

package sql

import "testing"

// FuzzParse checks that no input crashes the parser: Parse returns
// statements or an error. The seeds include inputs that once panicked;
// plain `go test` replays them, `go test -fuzz FuzzParse` explores.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"SELECT a, count(*) FROM t WHERE b > 1 GROUP BY a ORDER BY a LIMIT 10",
		"CREATE TABLE t (a INT, b DECIMAL(9,2), c VARCHAR(10)) PARTITIONED BY (ds INT)",
		"SELECT CAST(1 AS decimal(7,2)) FROM t",
		"CREATE TABLE A(A A0(",
		"SELECT CAST(1 AS decimal(7,2",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		Parse(src)
	})
}

package storage

import (
	"testing"
	"testing/quick"
)

func TestDecimalRoundTrip(t *testing.T) {
	cases := map[float64]int64{
		0:       0,
		1.5:     150,
		-1.5:    -150,
		999.99:  99999,
		-999.99: -99999,
	}
	for f, want := range cases {
		if got := Decimal(f); got != want {
			t.Errorf("Decimal(%v) = %d, want %d", f, got, want)
		}
	}
	if DecimalFloat(150) != 1.5 {
		t.Errorf("DecimalFloat(150) = %v", DecimalFloat(150))
	}
}

func TestDates(t *testing.T) {
	d := MustDate("1995-06-17")
	if FormatDate(d) != "1995-06-17" {
		t.Fatalf("round trip: %s", FormatDate(d))
	}
	if DateYear(d) != 1995 {
		t.Fatalf("year: %d", DateYear(d))
	}
	if MustDate("1992-01-01") >= MustDate("1998-12-31") {
		t.Fatal("date ordering broken")
	}
	if _, err := ParseDate("not-a-date"); err == nil {
		t.Fatal("ParseDate should reject garbage")
	}
	// dbgen boundary: 1998-12-01 − 90 days = 1998-09-02 (Q1).
	if got := FormatDate(MustDate("1998-12-01") - 90); got != "1998-09-02" {
		t.Fatalf("Q1 cutoff: %s", got)
	}
}

func TestMatchLike(t *testing.T) {
	cases := []struct {
		s, pat string
		want   bool
	}{
		{"forest green", "forest%", true},
		{"dark forest", "forest%", false},
		{"a special kind of requests", "%special%requests%", true},
		{"requests special", "%special%requests%", false},
		{"PROMO BURNISHED TIN", "PROMO%", true},
		{"anything", "%", true},
		{"", "%", true},
		{"STANDARD BRASS", "%BRASS", true},
		{"BRASS PLATED", "%BRASS", false},
		{"Customer complains about Complaints", "%Customer%Complaints%", true},
		{"abc", "abc", true},
		{"abcd", "abc", false},
		{"xabcx", "%abc%", true},
	}
	for _, c := range cases {
		if got := MatchLike(c.s, c.pat); got != c.want {
			t.Errorf("MatchLike(%q, %q) = %v, want %v", c.s, c.pat, got, c.want)
		}
	}
}

func TestMatchLikeProperties(t *testing.T) {
	// %s% always matches any string containing s.
	f := func(prefix, needle, suffix string) bool {
		return MatchLike(prefix+needle+suffix, "%"+escapeFree(needle)+"%") ||
			needle != escapeFree(needle)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// escapeFree drops % from a random string (patterns treat it as magic).
func escapeFree(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		if s[i] != '%' {
			out = append(out, s[i])
		}
	}
	return string(out)
}

func TestPartitionOfRange(t *testing.T) {
	f := func(h uint32, n8 uint8) bool {
		n := int(n8%32) + 1
		p := PartitionOf(h, n)
		return p >= 0 && p < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionBalance(t *testing.T) {
	// Sequential keys must spread evenly over partitions.
	const n = 8
	counts := make([]int, n)
	for k := int64(0); k < 80000; k++ {
		counts[PartitionOf(HashI64(k), n)]++
	}
	for i, c := range counts {
		if c < 8000 || c > 12000 {
			t.Fatalf("partition %d has %d of 80000 keys (want ~10000)", i, c)
		}
	}
}

func TestHashRowDeterminism(t *testing.T) {
	s := NewSchema(
		Field{Name: "a", Type: TInt64},
		Field{Name: "b", Type: TString},
	)
	b := NewBatch(s, 4)
	b.AppendRow(int64(1), "x")
	b.AppendRow(int64(1), "x")
	b.AppendRow(int64(1), "y")
	if HashRow(b, []int{0, 1}, 0) != HashRow(b, []int{0, 1}, 1) {
		t.Fatal("equal rows hash differently")
	}
	if HashRow(b, []int{0, 1}, 0) == HashRow(b, []int{0, 1}, 2) {
		t.Fatal("suspicious collision on differing rows")
	}
	if HashRow(b, nil, 0) != 0 {
		t.Fatal("empty key hash must be constant")
	}
}

func TestBatchAppendAndValidate(t *testing.T) {
	s := NewSchema(
		Field{Name: "k", Type: TInt64},
		Field{Name: "v", Type: TString},
		Field{Name: "d", Type: TDecimal, Nullable: true},
	)
	b := NewBatch(s, 2)
	b.AppendRow(int64(1), "a", int64(100))
	b.AppendRow(int64(2), "b", nil)
	if b.Rows() != 2 {
		t.Fatalf("rows = %d", b.Rows())
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	if !b.Cols[2].IsNull(1) {
		t.Fatal("NULL lost")
	}
	row := b.Row(1)
	if row[0] != int64(2) || row[1] != "b" || row[2] != nil {
		t.Fatalf("Row(1) = %v", row)
	}
	// AppendRowFrom preserves values and NULLs.
	b2 := NewBatch(s, 2)
	b2.AppendRowFrom(b, 1)
	if !b2.Cols[2].IsNull(0) || b2.Cols[0].I64[0] != 2 {
		t.Fatal("AppendRowFrom mangled row")
	}
}

func TestSplitPlacements(t *testing.T) {
	s := NewSchema(Field{Name: "k", Type: TInt64})
	b := NewBatch(s, 100)
	for i := 0; i < 100; i++ {
		b.AppendRow(int64(i))
	}
	chunks := SplitChunked(b, 3)
	total := 0
	for _, c := range chunks {
		total += c.Rows()
	}
	if total != 100 {
		t.Fatalf("chunked split lost rows: %d", total)
	}
	parts := SplitPartitioned(b, 0, 3)
	total = 0
	seen := map[int64]int{}
	for p, c := range parts {
		total += c.Rows()
		for i := 0; i < c.Rows(); i++ {
			k := c.Cols[0].I64[i]
			seen[k]++
			// Same key must deterministically map to the same partition.
			if PartitionOf(HashI64(k), 3) != p {
				t.Fatalf("key %d in wrong partition %d", k, p)
			}
		}
	}
	if total != 100 {
		t.Fatalf("partitioned split lost rows: %d", total)
	}
	for k, c := range seen {
		if c != 1 {
			t.Fatalf("key %d appears %d times", k, c)
		}
	}
	repl := Replicate(b, 3)
	for _, r := range repl {
		if r.Rows() != 100 {
			t.Fatal("replica incomplete")
		}
	}
}

func TestSchemaOps(t *testing.T) {
	s := NewSchema(
		Field{Name: "a", Type: TInt64},
		Field{Name: "b", Type: TString},
		Field{Name: "c", Type: TDate},
	)
	if s.MustColIndex("c") != 2 {
		t.Fatal("ColIndex broken")
	}
	if s.ColIndex("nope") != -1 {
		t.Fatal("missing column should be -1")
	}
	p := s.Project([]int{2, 0})
	if p.Fields[0].Name != "c" || p.Fields[1].Name != "a" {
		t.Fatalf("Project: %v", p)
	}
	if !s.Equal(s) || s.Equal(p) {
		t.Fatal("Equal broken")
	}
	cat := s.Concat(p)
	if cat.Len() != 5 {
		t.Fatal("Concat broken")
	}
}

// TestCompiledLikeAgreesWithMatchLike: a pattern compiled once gives the
// verdict the compile-per-call form gives, on the shapes of pattern that
// exist (no %, leading, trailing, inner, repeated literal) against empty,
// exact, overlapping and non-matching inputs.
func TestCompiledLikeAgreesWithMatchLike(t *testing.T) {
	want := map[string]map[string]bool{
		"":      {"": true, "a": false, "abc": false},
		"%":     {"": true, "a": true, "abc": true},
		"abc":   {"": false, "abc": true, "abcabc": false, "ab": false, "xabc": false},
		"a%":    {"": false, "a": true, "abc": true, "ba": false},
		"%a":    {"": false, "a": true, "cba": true, "ab": false, "aa": true},
		"a%b%c": {"": false, "abc": true, "aXbYc": true, "abcbc": true, "acb": false, "ac": false, "abca": false},
		"%a%a%": {"": false, "a": false, "aa": true, "aXa": true, "XaYaZ": true, "aaa": true, "bab": false},
	}
	for pattern, inputs := range want {
		like := CompileLike(pattern)
		for s, match := range inputs {
			if got := like.Match(s); got != match {
				t.Errorf("CompileLike(%q).Match(%q) = %v, want %v", pattern, s, got, match)
			}
			if got := MatchLike(s, pattern); got != match {
				t.Errorf("MatchLike(%q, %q) = %v, want %v", s, pattern, got, match)
			}
		}
	}
}

// TestGrowIsExact: Grow reallocates to exactly the requested size and
// leaves a column that already has the room alone.
func TestGrowIsExact(t *testing.T) {
	b := NewBatch(NewSchema(
		Field{Name: "i", Type: TInt64},
		Field{Name: "f", Type: TFloat64, Nullable: true},
		Field{Name: "s", Type: TString},
	), 0)
	b.AppendRow(int64(1), 1.5, "x")
	if b.Room() > 7 { // append-doubling from empty leaves little slack
		t.Fatalf("Room() = %d after one append", b.Room())
	}
	b.Grow(1000)
	if b.Room() != 1000 {
		t.Fatalf("Room() = %d after Grow(1000)", b.Room())
	}
	if cap(b.Cols[0].I64) != 1001 || cap(b.Cols[1].F64) != 1001 || cap(b.Cols[1].Valid) != 1001 || cap(b.Cols[2].Str) != 1001 {
		t.Fatalf("Grow(1000) over one row left capacities %d %d %d %d, want 1001",
			cap(b.Cols[0].I64), cap(b.Cols[1].F64), cap(b.Cols[1].Valid), cap(b.Cols[2].Str))
	}
	if got := b.Row(0); got[0] != int64(1) || got[1] != 1.5 || got[2] != "x" {
		t.Fatalf("Grow lost the row: %v", got)
	}
	before := &b.Cols[0].I64[0]
	b.Grow(1000)
	if &b.Cols[0].I64[0] != before {
		t.Fatal("Grow reallocated a column that had the room")
	}
}

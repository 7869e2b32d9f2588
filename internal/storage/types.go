// Package storage implements the in-memory columnar relation storage the
// engine executes over (HyPer's columnar format in the paper, §4.1):
// typed column vectors, schemas, NUMA-homed segments, and the hash
// partitioning / chunked placement used to distribute relations across
// servers.
package storage

import (
	"fmt"
	"strings"
	"time"
)

// Type is a column data type.
type Type uint8

const (
	// TInt64 is a 64-bit signed integer.
	TInt64 Type = iota
	// TFloat64 is a 64-bit float.
	TFloat64
	// TDecimal is a fixed-point decimal stored as int64 hundredths
	// (TPC-H money values).
	TDecimal
	// TDate is a date stored as int64 days since 1970-01-01.
	TDate
	// TString is a variable-length string.
	TString
)

func (t Type) String() string {
	switch t {
	case TInt64:
		return "int64"
	case TFloat64:
		return "float64"
	case TDecimal:
		return "decimal"
	case TDate:
		return "date"
	case TString:
		return "string"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// FixedSize returns the serialized byte width of fixed-size types and 0
// for variable-length types.
func (t Type) FixedSize() int {
	switch t {
	case TInt64, TFloat64, TDecimal:
		return 8
	case TDate:
		return 4
	default:
		return 0
	}
}

// Fixed reports whether the type has a fixed serialized width.
func (t Type) Fixed() bool { return t != TString }

// Field is one attribute of a schema.
type Field struct {
	Name     string
	Type     Type
	Nullable bool
}

// Schema describes the attributes of a relation or tuple stream.
type Schema struct {
	Fields []Field
}

// NewSchema builds a schema from fields.
func NewSchema(fields ...Field) *Schema {
	return &Schema{Fields: fields}
}

// Len returns the number of fields.
func (s *Schema) Len() int { return len(s.Fields) }

// ColIndex returns the index of the named field, or -1.
func (s *Schema) ColIndex(name string) int {
	for i, f := range s.Fields {
		if f.Name == name {
			return i
		}
	}
	return -1
}

// MustColIndex is ColIndex that panics on a missing name (plan-build bug).
func (s *Schema) MustColIndex(name string) int {
	i := s.ColIndex(name)
	if i < 0 {
		panic(fmt.Sprintf("storage: schema has no column %q", name))
	}
	return i
}

// Project returns a new schema containing the given field indexes.
func (s *Schema) Project(idx []int) *Schema {
	out := &Schema{Fields: make([]Field, len(idx))}
	for i, j := range idx {
		out.Fields[i] = s.Fields[j]
	}
	return out
}

// Concat returns a schema with the fields of s followed by those of other.
func (s *Schema) Concat(other *Schema) *Schema {
	out := &Schema{Fields: make([]Field, 0, len(s.Fields)+len(other.Fields))}
	out.Fields = append(out.Fields, s.Fields...)
	out.Fields = append(out.Fields, other.Fields...)
	return out
}

// Equal reports whether two schemas have identical field lists.
func (s *Schema) Equal(other *Schema) bool {
	if len(s.Fields) != len(other.Fields) {
		return false
	}
	for i := range s.Fields {
		if s.Fields[i] != other.Fields[i] {
			return false
		}
	}
	return true
}

func (s *Schema) String() string {
	out := "("
	for i, f := range s.Fields {
		if i > 0 {
			out += ", "
		}
		out += f.Name + " " + f.Type.String()
		if f.Nullable {
			out += " null"
		}
	}
	return out + ")"
}

// Decimal converts a float to the fixed-point representation (hundredths),
// rounding to nearest.
func Decimal(v float64) int64 {
	if v >= 0 {
		return int64(v*100 + 0.5)
	}
	return int64(v*100 - 0.5)
}

// DecimalFloat converts fixed-point hundredths back to a float.
func DecimalFloat(d int64) float64 { return float64(d) / 100 }

var epoch = time.Date(1970, 1, 1, 0, 0, 0, 0, time.UTC)

// DateFromYMD returns the day number of a calendar date.
func DateFromYMD(y, m, d int) int64 {
	t := time.Date(y, time.Month(m), d, 0, 0, 0, 0, time.UTC)
	return int64(t.Sub(epoch) / (24 * time.Hour))
}

// ParseDate parses "YYYY-MM-DD" into a day number.
func ParseDate(s string) (int64, error) {
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		return 0, fmt.Errorf("storage: parse date %q: %w", s, err)
	}
	return int64(t.Sub(epoch) / (24 * time.Hour)), nil
}

// MustDate is ParseDate that panics on error (for literals in tests and
// query definitions).
func MustDate(s string) int64 {
	d, err := ParseDate(s)
	if err != nil {
		panic(err)
	}
	return d
}

// FormatDate renders a day number as "YYYY-MM-DD".
func FormatDate(d int64) string {
	return epoch.Add(time.Duration(d) * 24 * time.Hour).Format("2006-01-02")
}

// DateYear returns the calendar year of a day number.
func DateYear(d int64) int {
	return epoch.Add(time.Duration(d) * 24 * time.Hour).Year()
}

// Like is a compiled SQL LIKE pattern: literal runs separated by %
// wildcards ('_' is not supported; TPC-H does not use it). Compile once
// per predicate with CompileLike, match per row.
type Like struct {
	parts []likePart
}

// CompileLike splits the pattern into its literal runs.
func CompileLike(pattern string) Like {
	var parts []likePart
	litStart := 0
	start := true
	for i := 0; i < len(pattern); i++ {
		if pattern[i] != '%' {
			continue
		}
		if i > litStart {
			parts = append(parts, likePart{lit: pattern[litStart:i], anchoredStart: start})
		}
		litStart = i + 1
		start = false
	}
	if litStart < len(pattern) {
		parts = append(parts, likePart{lit: pattern[litStart:], anchoredStart: start, anchoredEnd: true})
	} else if len(parts) == 0 && start {
		// Pattern without any % and empty literal: matches empty only.
		parts = append(parts, likePart{lit: "", anchoredStart: true, anchoredEnd: true})
	}
	return Like{parts: parts}
}

// Match reports whether s matches the pattern.
func (l Like) Match(s string) bool {
	parts := l.parts
	// First part must be a prefix unless the pattern starts with %.
	i := 0
	if len(parts) > 0 && parts[0].anchoredStart {
		if !strings.HasPrefix(s, parts[0].lit) {
			return false
		}
		s = s[len(parts[0].lit):]
		if parts[0].anchoredEnd {
			// Pattern without any %: exact match required.
			return s == ""
		}
		i = 1
	}
	// Last part must be a suffix unless the pattern ends with %.
	last := len(parts)
	if last > i && parts[last-1].anchoredEnd {
		lit := parts[last-1].lit
		if !strings.HasSuffix(s, lit) {
			return false
		}
		s = s[:len(s)-len(lit)]
		last--
	}
	// Remaining parts must appear in order.
	for ; i < last; i++ {
		idx := strings.Index(s, parts[i].lit)
		if idx < 0 {
			return false
		}
		s = s[idx+len(parts[i].lit):]
	}
	return true
}

// MatchLike is CompileLike(pattern).Match(s) for callers that match a
// pattern once (the reference engine).
func MatchLike(s, pattern string) bool { return CompileLike(pattern).Match(s) }

type likePart struct {
	lit           string
	anchoredStart bool
	anchoredEnd   bool
}

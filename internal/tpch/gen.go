// Package tpch is a from-scratch, deterministic TPC-H data generator
// (dbgen substitute) plus the Zipf generator used by the skew experiments
// (§3.1). Cardinalities, key structure, date logic and the value
// distributions the 22 queries' selectivities depend on follow the TPC-H
// specification; free-text comments are pseudo-text with the Q13/Q16
// patterns embedded at fixed rates.
package tpch

import (
	"fmt"
	"strings"

	"hsqp/internal/storage"
)

// Database holds one fully generated TPC-H database (undistributed).
type Database struct {
	SF     float64
	Tables map[string]*storage.Batch
}

// rng is a splitmix64 generator: tiny, fast, deterministic across runs.
type rng struct{ state uint64 }

func newRNG(seed uint64) *rng { return &rng{state: seed} }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a uniform int in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// rangeInt returns a uniform int in [lo, hi] inclusive.
func (r *rng) rangeInt(lo, hi int) int { return lo + r.intn(hi-lo+1) }

// float returns a uniform float in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// choice picks a uniform element of list.
func (r *rng) choice(list []string) string { return list[r.intn(len(list))] }

var (
	startDate   = storage.DateFromYMD(1992, 1, 1)
	endDate     = storage.DateFromYMD(1998, 12, 31)
	currentDate = storage.DateFromYMD(1995, 6, 17)
	// Last valid order date: ENDDATE − 151 days per the spec, so that
	// ship/receipt dates stay in range.
	lastOrderDate = endDate - 151
)

// Cardinalities per the specification.
const (
	suppliersPerSF = 10_000
	customersPerSF = 150_000
	partsPerSF     = 200_000
	ordersPerSF    = 1_500_000
	suppsPerPart   = 4
)

// Generate builds the complete database at scale factor sf with the given
// seed. The small fixed relations (nation, region) are SF-independent.
func Generate(sf float64, seed uint64) *Database {
	if sf <= 0 {
		panic(fmt.Sprintf("tpch: scale factor must be positive, got %g", sf))
	}
	db := &Database{SF: sf, Tables: make(map[string]*storage.Batch)}
	nSupp := scaled(suppliersPerSF, sf)
	nCust := scaled(customersPerSF, sf)
	nPart := scaled(partsPerSF, sf)
	nOrd := scaled(ordersPerSF, sf)

	db.Tables["region"] = genRegion(seed)
	db.Tables["nation"] = genNation(seed)
	db.Tables["supplier"] = genSupplier(nSupp, seed)
	db.Tables["customer"] = genCustomer(nCust, seed)
	db.Tables["part"] = genPart(nPart, seed)
	db.Tables["partsupp"] = genPartSupp(nPart, nSupp, seed)
	orders, lineitem := genOrdersAndLineitem(nOrd, nCust, nPart, nSupp, seed)
	db.Tables["orders"] = orders
	db.Tables["lineitem"] = lineitem
	return db
}

func scaled(base int, sf float64) int {
	n := int(float64(base)*sf + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}

func genRegion(seed uint64) *storage.Batch {
	r := newRNG(seed ^ 0x7265_6769)
	b := storage.NewBatch(RegionSchema(), len(regions))
	for i, name := range regions {
		b.AppendRow(int64(i), name, comment(r, 3, 10))
	}
	return b
}

func genNation(seed uint64) *storage.Batch {
	r := newRNG(seed ^ 0x6e61_7469)
	b := storage.NewBatch(NationSchema(), len(nations))
	for i, n := range nations {
		b.AppendRow(int64(i), n.Name, int64(n.Region), comment(r, 4, 12))
	}
	return b
}

func genSupplier(n int, seed uint64) *storage.Batch {
	r := newRNG(seed ^ 0x7375_7070)
	b := storage.NewBatch(SupplierSchema(), n)
	for k := 1; k <= n; k++ {
		nation := r.intn(25)
		// ~5 per 10,000 suppliers carry the Q16 complaint pattern.
		var c string
		switch {
		case r.float() < 0.0005:
			c = "Customer " + comment(r, 1, 2) + " Complaints " + comment(r, 1, 3)
		case r.float() < 0.0005:
			c = "Customer " + comment(r, 1, 2) + " Recommends " + comment(r, 1, 3)
		default:
			c = comment(r, 5, 12)
		}
		b.AppendRow(
			int64(k),
			fmt.Sprintf("Supplier#%09d", k),
			address(r),
			int64(nation),
			phone(r, nation),
			acctbal(r),
			c,
		)
	}
	return b
}

func genCustomer(n int, seed uint64) *storage.Batch {
	r := newRNG(seed ^ 0x6375_7374)
	b := storage.NewBatch(CustomerSchema(), n)
	for k := 1; k <= n; k++ {
		nation := r.intn(25)
		b.AppendRow(
			int64(k),
			fmt.Sprintf("Customer#%09d", k),
			address(r),
			int64(nation),
			phone(r, nation),
			acctbal(r),
			r.choice(segments),
			comment(r, 6, 15),
		)
	}
	return b
}

func genPart(n int, seed uint64) *storage.Batch {
	r := newRNG(seed ^ 0x7061_7274)
	b := storage.NewBatch(PartSchema(), n)
	for k := 1; k <= n; k++ {
		m := r.rangeInt(1, 5)
		nb := r.rangeInt(1, 5)
		b.AppendRow(
			int64(k),
			partName(r),
			fmt.Sprintf("Manufacturer#%d", m),
			fmt.Sprintf("Brand#%d%d", m, nb),
			typeSyl1[r.intn(len(typeSyl1))]+" "+typeSyl2[r.intn(len(typeSyl2))]+" "+typeSyl3[r.intn(len(typeSyl3))],
			int64(r.rangeInt(1, 50)),
			containerSyl1[r.intn(len(containerSyl1))]+" "+containerSyl2[r.intn(len(containerSyl2))],
			retailPrice(k),
			comment(r, 2, 6),
		)
	}
	return b
}

// retailPrice is the spec formula: (90000 + ((pk/10) mod 20001) + 100·(pk mod 1000)) / 100.
func retailPrice(pk int) int64 {
	return int64(90000 + (pk/10)%20001 + 100*(pk%1000))
}

// supplierFor implements dbgen's partsupp supplier spreading so each
// (part, supplier) pair is unique and suppliers are evenly loaded: part
// pk's i-th supplier lies i strides past pk. dbgen's stride is only safe
// at full scale — with few suppliers some parts' stride times 2 or 3 is a
// multiple of nSupp and two of the four coincide — so it is advanced to
// the next one that keeps them apart (stride 1 always does once there are
// four suppliers; with fewer, duplicates are unavoidable and the stride
// stays as computed).
func supplierFor(pk, i, nSupp int) int {
	stride := nSupp/4 + (pk-1)/nSupp
	for nSupp >= suppsPerPart && (stride%nSupp == 0 || 2*stride%nSupp == 0 || 3*stride%nSupp == 0) {
		stride++
	}
	return (pk+i*stride)%nSupp + 1
}

func genPartSupp(nPart, nSupp int, seed uint64) *storage.Batch {
	r := newRNG(seed ^ 0x7073_7570)
	b := storage.NewBatch(PartSuppSchema(), nPart*suppsPerPart)
	for pk := 1; pk <= nPart; pk++ {
		for i := 0; i < suppsPerPart; i++ {
			b.AppendRow(
				int64(pk),
				int64(supplierFor(pk, i, nSupp)),
				int64(r.rangeInt(1, 9999)),
				int64(r.rangeInt(100, 100000)), // 1.00 .. 1000.00
				comment(r, 8, 20),
			)
		}
	}
	return b
}

func genOrdersAndLineitem(nOrd, nCust, nPart, nSupp int, seed uint64) (*storage.Batch, *storage.Batch) {
	r := newRNG(seed ^ 0x6f72_6465)
	orders := storage.NewBatch(OrdersSchema(), nOrd)
	lineitem := storage.NewBatch(LineitemSchema(), nOrd*4)
	for ok := 1; ok <= nOrd; ok++ {
		// Customers divisible by 3 never place orders (spec: only 2/3 of
		// customers have orders, exercised by Q13/Q22).
		ck := r.rangeInt(1, nCust)
		for nCust >= 3 && ck%3 == 0 {
			ck = r.rangeInt(1, nCust)
		}
		odate := startDate + int64(r.intn(int(lastOrderDate-startDate+1)))
		nLines := r.rangeInt(1, 7)
		var total int64
		allF, allO := true, true
		for ln := 1; ln <= nLines; ln++ {
			pk := r.rangeInt(1, nPart)
			sk := supplierFor(pk, r.intn(suppsPerPart), nSupp)
			qty := int64(r.rangeInt(1, 50))
			ext := qty * retailPrice(pk)
			disc := int64(r.rangeInt(0, 10)) // 0.00 .. 0.10
			tax := int64(r.rangeInt(0, 8))   // 0.00 .. 0.08
			ship := odate + int64(r.rangeInt(1, 121))
			commit := odate + int64(r.rangeInt(30, 90))
			receipt := ship + int64(r.rangeInt(1, 30))
			var rf string
			if receipt <= currentDate {
				if r.intn(2) == 0 {
					rf = "R"
				} else {
					rf = "A"
				}
			} else {
				rf = "N"
			}
			var ls string
			if ship > currentDate {
				ls = "O"
				allF = false
			} else {
				ls = "F"
				allO = false
			}
			lineitem.AppendRow(
				int64(ok), int64(pk), int64(sk), int64(ln),
				qty*100, // decimal
				ext,
				disc,
				tax,
				rf, ls,
				ship, commit, receipt,
				r.choice(shipInstructs),
				r.choice(shipModes),
				comment(r, 2, 8),
			)
			total += ext * (100 + tax) / 100 * (100 - disc) / 100
		}
		status := "P"
		if allF {
			status = "F"
		} else if allO {
			status = "O"
		}
		// ~1/64 of order comments carry the Q13 "special … requests"
		// pattern.
		var oc string
		if r.intn(64) == 0 {
			oc = comment(r, 1, 3) + " special " + commentWords[r.intn(len(commentWords))] + " requests " + comment(r, 1, 3)
		} else {
			oc = comment(r, 4, 12)
		}
		orders.AppendRow(
			int64(ok), int64(ck), status, total, odate,
			r.choice(priorities),
			fmt.Sprintf("Clerk#%09d", r.rangeInt(1, max(1, nOrd/1000))),
			int64(0),
			oc,
		)
	}
	return orders, lineitem
}

func partName(r *rng) string {
	// Five distinct words of the 92-word color list.
	idx := make(map[int]struct{}, 5)
	words := make([]string, 0, 5)
	for len(words) < 5 {
		i := r.intn(len(partNameWords))
		if _, dup := idx[i]; dup {
			continue
		}
		idx[i] = struct{}{}
		words = append(words, partNameWords[i])
	}
	return strings.Join(words, " ")
}

func comment(r *rng, minWords, maxWords int) string {
	n := r.rangeInt(minWords, maxWords)
	var sb strings.Builder
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(commentWords[r.intn(len(commentWords))])
	}
	return sb.String()
}

func address(r *rng) string {
	n := r.rangeInt(10, 30)
	const chars = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 ,."
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteByte(chars[r.intn(len(chars))])
	}
	return sb.String()
}

// phone renders the spec's phone format: country code = nationkey + 10.
func phone(r *rng, nation int) string {
	return fmt.Sprintf("%02d-%03d-%03d-%04d",
		nation+10, r.rangeInt(100, 999), r.rangeInt(100, 999), r.rangeInt(1000, 9999))
}

// acctbal is uniform in [-999.99, 9999.99] (decimal hundredths).
func acctbal(r *rng) int64 {
	return int64(r.rangeInt(-99999, 999999))
}

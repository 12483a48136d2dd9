// Package gen generates the synthetic workloads used by the paper's
// evaluation (§8): the C-Store benchmark tables (a TPC-H-derived lineitem /
// orders pair) for Table 3, the million-random-integers file and the
// meter-metrics customer dataset for Table 4.
//
// The meter data follows the paper's §8.2.2 description exactly: "a few
// hundred metrics", "a couple of thousand meters", timestamps "every 5
// minutes, 10 minutes, hour, etc., depending on the metric", and float
// values where "some metrics have trends (like lots of 0 values when
// nothing happens), others change gradually with time, some are much more
// random".
package gen

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/types"
)

// LineitemSchema returns the fact table schema of the C-Store benchmark.
func LineitemSchema() *types.Schema {
	return types.NewSchema(
		types.Column{Name: "l_orderkey", Typ: types.Int64},
		types.Column{Name: "l_suppkey", Typ: types.Int64},
		types.Column{Name: "l_shipdate", Typ: types.Timestamp},
		types.Column{Name: "l_extendedprice", Typ: types.Float64},
		types.Column{Name: "l_returnflag", Typ: types.Varchar},
	)
}

// OrdersSchema returns the dimension table schema of the C-Store benchmark.
func OrdersSchema() *types.Schema {
	return types.NewSchema(
		types.Column{Name: "o_orderkey", Typ: types.Int64},
		types.Column{Name: "o_orderdate", Typ: types.Timestamp},
		types.Column{Name: "o_custkey", Typ: types.Int64},
	)
}

// benchEpoch is the first shipdate of the generated data.
var benchEpoch = time.Date(2006, 1, 1, 0, 0, 0, 0, time.UTC)

// Day returns the timestamp value for day d of the benchmark calendar.
func Day(d int) types.Value {
	return types.NewTimestamp(benchEpoch.AddDate(0, 0, d))
}

// LineitemOrders generates nLine lineitem rows and nLine/lineitemPerOrder
// orders rows, deterministically from seed. Lineitem rows are shipped over
// ~2 years (730 distinct shipdates), with ~2000 suppliers and prices around
// TPC-H magnitudes; orders are dated up to a week before shipment.
func LineitemOrders(nLine int, seed int64) (lineitem, orders []types.Row) {
	const lineitemPerOrder = 4
	rng := rand.New(rand.NewSource(seed))
	nOrders := nLine / lineitemPerOrder
	if nOrders == 0 {
		nOrders = 1
	}
	flags := []string{"N", "R", "A"}
	orderDay := make([]int, nOrders)
	orders = make([]types.Row, nOrders)
	for o := 0; o < nOrders; o++ {
		day := rng.Intn(730)
		orderDay[o] = day
		orders[o] = types.Row{
			types.NewInt(int64(o)),
			Day(day),
			types.NewInt(int64(rng.Intn(100000))),
		}
	}
	lineitem = make([]types.Row, nLine)
	for i := 0; i < nLine; i++ {
		o := i % nOrders
		ship := orderDay[o] + 1 + rng.Intn(7)
		lineitem[i] = types.Row{
			types.NewInt(int64(o)),
			types.NewInt(int64(rng.Intn(2000))),
			Day(ship),
			types.NewFloat(900 + rng.Float64()*90000),
			types.NewString(flags[rng.Intn(len(flags))]),
		}
	}
	return lineitem, orders
}

// meterBehavior classifies a metric's value process per the paper: trending,
// mostly-zero, or random.
type meterBehavior int

const (
	behaviorTrend meterBehavior = iota
	behaviorZeroes
	behaviorRandom
)

// MeterData generates n rows of meter metrics, sorted by (metric, meter,
// ts) — the sort order the paper's customer uses. There are nMetrics
// distinct metrics (default a few hundred) and nMeters meters (a couple of
// thousand); each (metric, meter) series samples at the metric's fixed
// period.
func MeterData(n, nMetrics, nMeters int, seed int64) []types.Row {
	if nMetrics <= 0 {
		nMetrics = 300
	}
	if nMeters <= 0 {
		nMeters = 2000
	}
	rng := rand.New(rand.NewSource(seed))
	periods := []int64{5 * 60, 10 * 60, 3600} // seconds, per the paper
	start := time.Date(2011, 1, 1, 0, 0, 0, 0, time.UTC).UnixMicro()
	rows := make([]types.Row, 0, n)
	// Samples per (metric, meter) series so the product covers n.
	perSeries := n / (nMetrics * nMeters)
	if perSeries < 1 {
		perSeries = 1
	}
	for m := 0; m < nMetrics && len(rows) < n; m++ {
		name := fmt.Sprintf("metric_%03d", m)
		period := periods[m%len(periods)] * 1_000_000
		behavior := meterBehavior(m % 3)
		for meter := 0; meter < nMeters && len(rows) < n; meter++ {
			val := 50 + rng.Float64()*50
			ts := start + int64(meter%17)*period
			for s := 0; s < perSeries && len(rows) < n; s++ {
				switch behavior {
				case behaviorTrend:
					val += rng.Float64()*0.5 - 0.2 // gradual drift
				case behaviorZeroes:
					if rng.Float64() < 0.9 {
						val = 0
					} else {
						val = rng.Float64() * 100
					}
				default:
					val = rng.Float64() * 1e6
				}
				rows = append(rows, types.Row{
					types.NewString(name),
					types.NewInt(int64(meter)),
					types.NewTimestampMicros(ts),
					types.NewFloat(val),
				})
				ts += period
			}
		}
	}
	return rows
}

// MeterCSVBytes renders meter rows as the comma-separated baseline file of
// §8.2.2 ("a baseline file of 200 million comma separated values").
func MeterCSVBytes(rows []types.Row) []byte {
	var out []byte
	for _, r := range rows {
		out = append(out, r[0].S...)
		out = append(out, ',')
		out = append(out, fmt.Sprintf("%d", r[1].I)...)
		out = append(out, ',')
		out = append(out, r[2].Time().Format("2006-01-02 15:04:05")...)
		out = append(out, ',')
		out = append(out, fmt.Sprintf("%g", r[3].F)...)
		out = append(out, '\n')
	}
	return out
}

// RandomInts generates n random integers in [1, max] (§8.2.1: "a million
// random integers between 1 and 10 million").
func RandomInts(n int, max int64, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, n)
	for i := range out {
		out[i] = 1 + rng.Int63n(max)
	}
	return out
}

// IntsTextBytes renders integers one per line, the paper's "text file
// containing a million random integers" (~7 digits + newline per row).
func IntsTextBytes(vals []int64) []byte {
	var out []byte
	for _, v := range vals {
		out = append(out, fmt.Sprintf("%d\n", v)...)
	}
	return out
}

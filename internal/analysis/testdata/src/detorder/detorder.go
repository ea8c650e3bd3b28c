// Package detorder is the fixture for the detorder pass: map-range loops
// feeding ordered output or a float sum are flagged; integer aggregation
// and the collect-then-sort repair are not.
package detorder

import (
	"maps"
	"slices"
	"sort"
)

func badAppend(m map[int]string) []string {
	var out []string
	for _, v := range m {
		out = append(out, v) // want "append to .out. inside map iteration"
	}
	return out
}

func collectThenSort(m map[int]string) []int {
	var keys []int
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

func badWinner(m map[int][]int) int {
	best := -1
	for k, list := range m {
		if len(list) > 1 {
			best = k // want "map key .k. assigned to outer variable .best."
		}
	}
	return best
}

func badSend(m map[int]string, ch chan string) {
	for _, v := range m {
		ch <- v // want "send on .ch. inside map iteration"
	}
}

func badClosure(m map[int]string) []string {
	var out []string
	add := func(s string) {
		out = append(out, s)
	}
	for _, v := range m {
		add(v) // want "call to .add. inside map iteration appends"
	}
	return out
}

// badFloatSum: float addition is not associative, so the low bits of the
// total follow map order.
func badFloatSum(m map[int]float64) float64 {
	total := 0.0
	for _, v := range m {
		total += v // want "float sum into .total. inside map iteration"
	}
	return total
}

type account struct{ cost float64 }

func badFloatField(m map[int]float64) account {
	var a account
	for _, v := range m {
		a.cost -= v // want "float sum into .a.cost. inside map iteration"
	}
	return a
}

// intCount is order-independent: integer sums do not round.
func intCount(m map[int]float64) int {
	n := 0
	for k := range m {
		n += k
	}
	return n
}

// sortedFloatSum is the repair: the sum runs over sorted keys, not the map.
func sortedFloatSum(m map[int]float64) float64 {
	total := 0.0
	for _, k := range slices.Sorted(maps.Keys(m)) {
		total += m[k]
	}
	return total
}

// innerFloat sums into a float declared inside the loop: each iteration
// starts afresh, so order cannot leak out.
func innerFloat(m map[int][]float64) int {
	n := 0
	for _, vs := range m {
		sum := 0.0
		for _, v := range vs {
			sum += v
		}
		if sum > 1 {
			n++
		}
	}
	return n
}

// innerSlice appends to a slice declared inside the loop — each iteration
// gets a fresh one, so order cannot leak out.
func innerSlice(m map[int][]int) int {
	n := 0
	for _, vs := range m {
		var local []int
		for _, v := range vs {
			local = append(local, v)
		}
		n += len(local)
	}
	return n
}

// sliceRange is not a map range at all.
func sliceRange(xs []int) []int {
	var out []int
	for _, x := range xs {
		out = append(out, x)
	}
	return out
}

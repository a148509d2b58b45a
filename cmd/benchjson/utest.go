package main

import (
	"math"
	"sort"
)

// exactMaxSamples is the largest pooled sample count for which
// mannWhitneyP enumerates the exact null distribution; above it the
// normal approximation is accurate enough.
const exactMaxSamples = 20

// mannWhitneyP returns the two-sided p-value of the Mann–Whitney U test of
// the hypothesis that xs and ys are drawn from one distribution. Tied
// values share their mid-rank. Up to exactMaxSamples pooled samples it
// uses the exact permutation distribution of xs's rank sum, so 5 fully
// separated samples against 5 give 2/C(10,5) = 2/252; above that the
// normal approximation with tie and continuity corrections. Swapping xs
// and ys leaves the p-value unchanged. Both sides must be non-empty.
func mannWhitneyP(xs, ys []float64) float64 {
	type obs struct {
		v float64
		x bool
	}
	all := make([]obs, 0, len(xs)+len(ys))
	for _, v := range xs {
		all = append(all, obs{v, true})
	}
	for _, v := range ys {
		all = append(all, obs{v, false})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })

	// rank2 holds doubled mid-ranks, so ties stay integers: the group at
	// 0-based positions i..j-1 has ranks i+1..j, mid-rank (i+1+j)/2.
	n := len(all)
	rank2 := make([]int, n)
	sumX := 0   // doubled rank sum of xs
	ties := 0.0 // Σ (t³ − t) over tie groups of size t
	for i := 0; i < n; {
		j := i + 1
		for j < n && all[j].v == all[i].v {
			j++
		}
		for k := i; k < j; k++ {
			rank2[k] = i + 1 + j
			if all[k].x {
				sumX += i + 1 + j
			}
		}
		t := float64(j - i)
		ties += t*t*t - t
		i = j
	}
	if n <= exactMaxSamples {
		return exactRankSumP(rank2, len(xs), sumX)
	}
	n1, n2, nf := float64(len(xs)), float64(len(ys)), float64(n)
	u := float64(sumX)/2 - n1*(n1+1)/2
	sigma := math.Sqrt(n1 * n2 / 12 * (nf + 1 - ties/(nf*(nf-1))))
	if sigma == 0 {
		return 1 // every sample equal
	}
	z := math.Max(0, math.Abs(u-n1*n2/2)-0.5) / sigma
	return math.Min(1, math.Erfc(z/math.Sqrt2))
}

// exactRankSumP returns the two-sided p-value of observing the doubled
// rank sum obs for a group of k drawn from the doubled ranks rank2: twice
// the smaller tail of the distribution of the sum over all C(n, k)
// equally likely k-subsets, counted by dynamic programming.
func exactRankSumP(rank2 []int, k, obs int) float64 {
	maxSum := 0
	for _, r := range rank2 {
		maxSum += r
	}
	// ways[j][s] counts the j-subsets of the ranks seen so far with sum s.
	ways := make([][]float64, k+1)
	for j := range ways {
		ways[j] = make([]float64, maxSum+1)
	}
	ways[0][0] = 1
	for _, r := range rank2 {
		for j := k; j >= 1; j-- {
			row, prev := ways[j], ways[j-1]
			for s := maxSum; s >= r; s-- {
				row[s] += prev[s-r]
			}
		}
	}
	var lo, hi, total float64
	for s, w := range ways[k] {
		total += w
		if s <= obs {
			lo += w
		}
		if s >= obs {
			hi += w
		}
	}
	return math.Min(1, 2*math.Min(lo, hi)/total)
}

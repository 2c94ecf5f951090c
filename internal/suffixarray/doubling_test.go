package suffixarray

import "sort"

// BuildDoubling returns the suffix array of text·$ using prefix doubling
// (Manber-Myers style, O(n log^2 n) with sort.Slice): an independent
// implementation that the tests cross-check SA-IS against, and the other arm
// of BenchmarkSuffixArrayAlgos.
func BuildDoubling(text []uint8, sigma int) ([]int32, error) {
	if err := checkText(text, sigma); err != nil {
		return nil, err
	}
	n := len(text) + 1
	sa := make([]int32, n)
	rank := make([]int32, n)
	tmp := make([]int32, n)
	for i := 0; i < n; i++ {
		sa[i] = int32(i)
		if i < len(text) {
			rank[i] = int32(text[i]) + 1
		} // sentinel keeps rank 0
	}

	for k := 1; ; k *= 2 {
		key := func(i int32) (int32, int32) {
			second := int32(-1)
			if int(i)+k < n {
				second = rank[int(i)+k]
			}
			return rank[i], second
		}
		sort.Slice(sa, func(x, y int) bool {
			a1, a2 := key(sa[x])
			b1, b2 := key(sa[y])
			if a1 != b1 {
				return a1 < b1
			}
			return a2 < b2
		})
		tmp[sa[0]] = 0
		for i := 1; i < n; i++ {
			a1, a2 := key(sa[i-1])
			b1, b2 := key(sa[i])
			tmp[sa[i]] = tmp[sa[i-1]]
			if a1 != b1 || a2 != b2 {
				tmp[sa[i]]++
			}
		}
		copy(rank, tmp)
		if int(rank[sa[n-1]]) == n-1 {
			break
		}
	}
	return sa, nil
}

package suffixarray

import (
	"errors"
	"fmt"
)

// Validate checks that sa is a correct suffix array of text·$: a permutation
// of [0, len(text)] whose suffixes are in strictly increasing lexicographic
// order (with the sentinel smaller than every symbol). It runs in O(n^2)
// worst case.
func Validate(text []uint8, sa []int32) error {
	n := len(text) + 1
	if len(sa) != n {
		return fmt.Errorf("suffixarray: length %d, want %d", len(sa), n)
	}
	seen := make([]bool, n)
	for _, p := range sa {
		if p < 0 || int(p) >= n {
			return fmt.Errorf("suffixarray: entry %d out of range [0,%d)", p, n)
		}
		if seen[p] {
			return fmt.Errorf("suffixarray: duplicate entry %d", p)
		}
		seen[p] = true
	}
	if len(sa) > 0 && int(sa[0]) != len(text) {
		return errors.New("suffixarray: first entry must be the sentinel suffix")
	}
	for i := 1; i < n; i++ {
		if compareSuffixes(text, int(sa[i-1]), int(sa[i])) >= 0 {
			return fmt.Errorf("suffixarray: suffixes at ranks %d and %d out of order", i-1, i)
		}
	}
	return nil
}

// compareSuffixes lexicographically compares text[a:]·$ with text[b:]·$.
func compareSuffixes(text []uint8, a, b int) int {
	if a == b {
		return 0
	}
	for {
		aEnd, bEnd := a >= len(text), b >= len(text)
		switch {
		case aEnd && bEnd:
			return 0
		case aEnd:
			return -1
		case bEnd:
			return 1
		}
		if text[a] != text[b] {
			if text[a] < text[b] {
				return -1
			}
			return 1
		}
		a++
		b++
	}
}

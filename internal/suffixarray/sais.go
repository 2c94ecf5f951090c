// Package suffixarray builds suffix arrays for the BWT stage of BWaveR.
//
// The paper's host pipeline (§III-D step 1) computes the suffix array and
// BWT of the reference before encoding. This package provides the
// linear-time SA-IS construction. Its tests hold it to two independent
// references, an O(n log^2 n) prefix-doubling construction and a naive one,
// and to Validate, all three in the package's _test.go files. Every
// downstream structure inherits its ordering from the suffix array, so this
// redundancy anchors the whole repository's correctness.
//
// All constructions operate on a text over symbols [0, sigma) and return the
// suffix array of text·$ where $ is a virtual sentinel smaller than every
// symbol: the result has length len(text)+1 and its first entry is always
// len(text) (the sentinel suffix).
package suffixarray

import (
	"context"
	"fmt"
	"slices"
)

// Build returns the suffix array of text·$ using the SA-IS linear-time
// algorithm. Symbols of text must lie in [0, sigma). The text is read in
// place and the array it returns is the only memory proportional to the text
// that Build allocates (see sais).
func Build[E ~uint8](text []E, sigma int) ([]int32, error) {
	return BuildCtx(context.Background(), text, sigma)
}

// BuildCtx is Build with cancellation: the context is checked between the
// passes of the sort, of which the longest is about a fifth of a build, and
// the first check that finds it done returns its error.
func BuildCtx[E ~uint8](ctx context.Context, text []E, sigma int) ([]int32, error) {
	if err := checkText(text, sigma); err != nil {
		return nil, err
	}
	sa := make([]int32, len(text)+1)
	sa[0] = int32(len(text)) // the sentinel suffix; the rest is the order of text's own suffixes
	if err := sais(ctx, text, sigma, sa[1:], make([]int32, 2*sigma)); err != nil {
		return nil, err
	}
	return sa, nil
}

func checkText[E ~uint8](text []E, sigma int) error {
	if sigma < 1 || sigma > 256 {
		return fmt.Errorf("suffixarray: alphabet size %d out of range [1,256]", sigma)
	}
	if len(text) > 1<<31-2 {
		return fmt.Errorf("suffixarray: text of %d symbols exceeds int32 indexing", len(text))
	}
	for i, c := range text {
		if int(c) >= sigma {
			return fmt.Errorf("suffixarray: symbol %d at position %d outside alphabet [0,%d)", c, i, sigma)
		}
	}
	return nil
}

// symbol is an element of a text sais sorts: a byte at the top level, an
// LMS-substring name in the recursion.
type symbol interface{ ~uint8 | ~int32 }

// sais sorts the suffixes of text, whose symbols lie in [0, sigma), into sa,
// which must be zeroed and as long as text. A suffix that is a prefix of
// another sorts first, as if text ended in a sentinel below every symbol; the
// sentinel is never stored. tmp holds the 2*sigma bucket counters.
//
// It is the induced-sorting algorithm of Nong, Zhang and Chan, organised as
// in Go's index/suffixarray (after Mori's sais-lite): there is no type array —
// a scan knows a position's type from the two symbols it holds, and a negated
// entry carries the one bit the next pass needs — and no memory but sa and
// tmp. With m LMS positions, the sorted LMS-substrings collect in sa[n-m:],
// their names go to sa[p/2] for the LMS position p (two LMS positions are at
// least 2 apart and neither end of the text is one, so m <= n/2 and
// p/2 < n-m), the text of names is compacted into sa[n-m:], its suffix array
// is computed into sa[:m] with the n-2m entries between them as the
// recursion's tmp, and the LMS positions are recomputed into sa[n-m:] to turn
// that array's ranks back into positions.
func sais[T symbol](ctx context.Context, text []T, sigma int, sa, tmp []int32) error {
	n := len(text)
	if n < 2 {
		return nil // sa is zeroed, which is the answer
	}
	freq, bucket := tmp[:sigma], tmp[sigma:2*sigma]
	clear(freq)
	for _, c := range text {
		freq[c]++
	}
	m := placeLMS(text, sa, freq, bucket)
	if m > 1 {
		// Sort the LMS-substrings, then the LMS suffixes by way of their names.
		induceL(text, sa, freq, bucket, true)
		if err := ctx.Err(); err != nil {
			return err
		}
		induceS(text, sa, freq, bucket, true)
		if err := ctx.Err(); err != nil {
			return err
		}
		if names := nameLMS(text, sa, m); names < m {
			sub, w := sa[n-m:], n
			for i := (n - 1) / 2; i >= 0; i-- {
				if id := sa[i]; id > 0 {
					w--
					sa[w] = id - 1
				}
			}
			subTmp := sa[m : n-m]
			if len(subTmp) < 2*names {
				subTmp = make([]int32, 2*names)
			}
			clear(sa[:m])
			if err := sais(ctx, sub, names, sa[:m], subTmp); err != nil {
				return err
			}
			at := m
			eachLMS(text, func(p int) {
				at--
				sub[at] = int32(p)
			})
			for i, r := range sa[:m] {
				sa[i] = sub[r]
			}
		} else {
			copy(sa, sa[n-m:]) // all distinct: the substring order is the suffix order
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		expand(text, sa, freq, bucket, m)
	}
	induceL(text, sa, freq, bucket, false)
	if err := ctx.Err(); err != nil {
		return err
	}
	induceS(text, sa, freq, bucket, false)
	return nil
}

// bucketStarts sets bucket[c] to the first slot of symbol c's bucket, the run
// of sa holding the suffixes that begin with c; bucketEnds to one past its
// last. Within a bucket the L-type suffixes precede the S-type ones.
func bucketStarts(freq, bucket []int32) {
	sum := int32(0)
	for c, f := range freq {
		bucket[c] = sum
		sum += f
	}
}

func bucketEnds(freq, bucket []int32) {
	sum := int32(0)
	for c, f := range freq {
		sum += f
		bucket[c] = sum
	}
}

// eachLMS calls visit(p) for every LMS position p of text from right to left:
// p is S-type (text[p:] < text[p+1:]) and p-1 is L-type. Scanning backwards,
// position i is S-type if text[i] < text[i+1], L-type if greater, and of the
// type of i+1 if equal; the last position is L-type. The position past the
// end, which the sentinel makes the last LMS position, is not visited.
func eachLMS[T symbol](text []T, visit func(p int)) {
	var c1 T
	isS := false
	for i := len(text) - 1; i >= 0; i-- {
		c0 := text[i]
		if c0 < c1 {
			isS = true
		} else if c0 > c1 && isS {
			isS = false
			visit(i + 1)
		}
		c1 = c0
	}
}

// placeLMS puts the LMS positions at the ends of their buckets, in text order
// within a bucket, and returns their number. Position 0 is never LMS, so 0
// marks an empty slot here and until the last two passes. The leftmost LMS
// position ends no LMS-substring, so it is taken out again — unless it is the
// only one, when the caller goes straight to the final passes, which need it.
func placeLMS[T symbol](text []T, sa, freq, bucket []int32) int {
	bucketEnds(freq, bucket)
	m, last := 0, int32(0)
	eachLMS(text, func(p int) {
		c := text[p]
		bucket[c]--
		last = bucket[c]
		sa[last] = int32(p)
		m++
	})
	if m > 1 {
		sa[last] = 0
	}
	return m
}

// induceL scans sa left to right. An entry j > 0 says that j-1 is L-type, so
// text[j-1:] sorts right after the entries already in its bucket: it is put
// there, positive if its own predecessor is L-type too (text[j-2] >=
// text[j-1]: work for later in this scan) and negated if that one is S-type
// (work for induceS). The entry for len(text), which has no slot, is handled
// first. The final pass (sub false) starts from the sorted LMS suffixes and
// leaves every L-type suffix in place. The LMS-substring pass (sub true)
// starts from the LMS positions bucketed by first symbol and erases what it
// has used: it leaves only the negated entries, the leftmost L-type position
// of each LMS-substring, sorted by the substring's remainder.
func induceL[T symbol](text []T, sa, freq, bucket []int32, sub bool) {
	bucketStarts(freq, bucket)
	k := len(text) - 1
	cB := text[k]
	if text[k-1] < cB {
		k = -k
	}
	b := bucket[cB] // the cursor of bucket cB, written back when cB changes
	sa[b] = int32(k)
	b++
	for i := 0; i < len(sa); i++ {
		j := int(sa[i])
		if j <= 0 {
			continue
		}
		if sub {
			sa[i] = 0
		}
		k := j - 1
		c1 := text[k]
		if k > 0 { // nested, not &&: the inner test then compiles to a conditional move
			if text[k-1] < c1 {
				k = -k
			}
		}
		if c1 != cB {
			bucket[cB] = b
			cB = c1
			b = bucket[cB]
		}
		sa[b] = int32(k)
		b++
	}
}

// induceS scans sa right to left, the mirror image of induceL. A negated
// entry -j says that j-1 is S-type, so text[j-1:] sorts right before the
// entries already at the end of its bucket: it is put there, negated if its
// own predecessor is S-type too (text[j-2] <= text[j-1]) and positive if that
// one is L-type. The final pass leaves every entry positive and in place: the
// suffix array. The LMS-substring pass erases what it has used and moves each
// positive entry it meets — an S-type position with an L-type predecessor, an
// LMS position, met in LMS-substring order — to the top of sa.
func induceS[T symbol](text []T, sa, freq, bucket []int32, sub bool) {
	bucketEnds(freq, bucket)
	var cB T
	b := bucket[cB]
	top := len(sa)
	for i := len(sa) - 1; i >= 0; i-- {
		j := int(sa[i])
		if j >= 0 {
			if sub && j > 0 {
				sa[i] = 0
				top--
				sa[top] = int32(j)
			}
			continue
		}
		j = -j
		if sub {
			sa[i] = 0
		} else {
			sa[i] = int32(j)
		}
		k := j - 1
		c1 := text[k]
		if k > 0 {
			if text[k-1] <= c1 {
				k = -k
			}
		}
		if c1 != cB {
			bucket[cB] = b
			cB = c1
			b = bucket[cB]
		}
		b--
		sa[b] = int32(k)
	}
}

// nameLMS numbers the m LMS-substrings sorted in sa[n-m:] from 1 in sorted
// order, equal ones alike, writes the name of the one at p to sa[p/2] and
// returns the largest. Two are equal when their lengths and symbols are: the
// types follow from the symbols. The length of each, up to and including the
// next LMS position, is first noted in sa[p/2], and 0 for the last one, which
// runs into the sentinel and equals no other.
func nameLMS[T symbol](text []T, sa []int32, m int) int {
	end := 0
	eachLMS(text, func(p int) {
		if end > 0 {
			sa[p/2] = int32(end - p)
		}
		end = p + 1
	})
	names, last, lastLen := 0, 0, -1
	for _, q := range sa[len(sa)-m:] {
		p, l := int(q), int(sa[q/2])
		if l != lastLen || !slices.Equal(text[p:p+l], text[last:last+l]) {
			names++
			last, lastLen = p, l
		}
		sa[p/2] = int32(names)
	}
	return names
}

// expand moves the sorted LMS suffixes from sa[:m] to the ends of their
// buckets, from the largest down, and empties every other slot. The x-th of
// them has x suffixes below it, so it never lands below slot x and no unread
// one is overwritten.
func expand[T symbol](text []T, sa, freq, bucket []int32, m int) {
	bucketEnds(freq, bucket)
	x := m - 1
	p := sa[x]
	bucket[text[p]]--
	b := int(bucket[text[p]]) // where p goes
	for i := len(sa) - 1; i >= 0; i-- {
		if i != b {
			sa[i] = 0
			continue
		}
		sa[i] = p
		if x > 0 {
			x--
			p = sa[x]
			bucket[text[p]]--
			b = int(bucket[text[p]])
		}
	}
}

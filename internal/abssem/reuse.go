package abssem

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"psa/internal/lang"
)

// Digest returns a canonical fingerprint of everything a Result exposes:
// the scalar fields, the terminal join, every per-statement invariant,
// and the full footprint map (when collected). Two results of analyses
// over the SAME program (identical NodeIDs) digest equal iff every
// client-visible query would answer identically — the comparison the
// result cache's bit-identity contract is enforced with (pipeline
// tests, psasoak oracle 5).
func (r *Result) Digest() string {
	var b strings.Builder
	fmt.Fprintf(&b, "states=%d visits=%d terminals=%d mayErr=%t trunc=%t cancel=%t\n",
		r.States, r.Visits, r.TerminalCount, r.MayError, r.Truncated, r.Cancelled)
	if r.Terminal != nil {
		b.WriteString("terminal=" + r.Terminal.String() + "\n")
	}
	ids := make([]int, 0, len(r.at))
	for id := range r.at {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	for _, id := range ids {
		fmt.Fprintf(&b, "at[%d]=%s\n", id, r.at[lang.NodeID(id)].String())
	}
	if r.foot != nil {
		fids := make([]int, 0, len(r.foot.m))
		for id := range r.foot.m {
			fids = append(fids, int(id))
		}
		sort.Ints(fids)
		for _, id := range fids {
			accs := r.foot.m[lang.NodeID(id)]
			lines := make([]string, 0, len(accs))
			for acc := range accs {
				lines = append(lines, fmt.Sprintf("%v/%t/%t", acc.Target, acc.All, acc.Write))
			}
			sort.Strings(lines)
			fmt.Fprintf(&b, "foot[%d]=%s\n", id, strings.Join(lines, ","))
		}
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:16])
}

// ReuseResult rebinds a completed result onto newProg, which must have
// the same node skeleton as the program the result was computed for
// (equal whole-program body hashes guarantee it: the parser assigns
// NodeIDs in structural order, so α-equal programs number corresponding
// nodes identically). The stores, invariant map, and footprints are
// shared — they are immutable — and only the program pointer the label/
// query methods resolve through is replaced. The pipeline's result cache
// calls this when a hit comes from another parse of a stored program.
func ReuseResult(prev *Result, newProg *lang.Program) *Result {
	return &Result{
		States:        prev.States,
		Visits:        prev.Visits,
		Terminal:      prev.Terminal,
		TerminalCount: prev.TerminalCount,
		MayError:      prev.MayError,
		Truncated:     prev.Truncated,
		Cancelled:     prev.Cancelled,
		prog:          newProg,
		foot:          prev.foot,
		at:            prev.at,
	}
}

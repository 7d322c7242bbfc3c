package abssem

import (
	"context"

	"psa/internal/lang"
)

// AnalyzeWithVerdicts is Analyze with every expansion-time verdict handed
// to check: the verdict absorbs gave for a successor, and whether
// joinInto of that successor into the same stored configuration changed
// nothing, without and with widening. check may run on pool workers.
func AnalyzeWithVerdicts(prog *lang.Program, opts Options, check func(below, joinNil, widenNil bool)) *Result {
	opts.fill()
	sc := newStepCtx(prog, opts)
	sc.onVerdict = func(cfg, succ *AConfig, below bool) {
		check(below, cfg.joinInto(succ, false, true) == nil, cfg.joinInto(succ, true, true) == nil)
	}
	res, _ := analyzeParallel(context.Background(), sc, opts)
	return res
}

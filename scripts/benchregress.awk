# Flag sec/op regressions above 10% in benchstat output.
#
#   awk -f scripts/benchregress.awk bench-delta.txt
#
# Prints one GitHub warning annotation per benchmark row of a sec/op
# table whose delta is worse than +10%, then a summary annotation. The
# delta is the signed "+NN.NN%" field, matched wherever it sits in the
# row: benchstat ends rows with "(p=... n=...)", so it is not the last
# field. Unsigned fields such as the "± 3%" spread never match. Warnings
# only, and the exit status is always 0: micro-benchmark noise on shared
# runners must not fail a build.
/sec\/op/ { insec = 1; next }
/^[ \t]*$/ { insec = 0 }
insec {
	for (i = 1; i <= NF; i++) {
		if ($i ~ /^\+[0-9.]+%$/) {
			pct = substr($i, 2, length($i) - 2)
			if (pct + 0 > 10) {
				printf "::warning title=bench regression::%s\n", $0
				n++
			}
			break
		}
	}
}
END {
	if (n) printf "::warning::%d benchmark(s) regressed >10%% in sec/op\n", n
}

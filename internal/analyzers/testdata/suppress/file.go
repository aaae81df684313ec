// Package fleet exercises //lint:ignore handling: same-line and
// previous-line suppressions, a comma list, a wildcard, and two
// ineffective directives — one missing its reason, one naming no
// registered check — that must surface as badignore. The package name
// places it in nodeterm's deterministic set.
package fleet

import "time"

func sameLine() time.Time {
	return time.Now() //lint:ignore nodeterm fixture: the wall clock is the point
}

func lineAbove() time.Time {
	//lint:ignore nodeterm fixture: the wall clock is the point
	return time.Now()
}

func commaList() time.Time {
	//lint:ignore nodeterm,unitflow fixture: both checks silenced
	return time.Now()
}

func wildcard() time.Time {
	//lint:ignore * fixture: everything on this line is fine
	return time.Now()
}

func missingReason() time.Time {
	//lint:ignore nodeterm
	return time.Now()
}

func unknownCheck() time.Time {
	//lint:ignore nosuchcheck reason
	return time.Now()
}

// Fixture client package: switches and keyed tables over the status
// family, covering the historical bug class (a dispatch written
// before StatusThrottled existed) plus every escape hatch.
package ucos

import "example.com/internal/abi"

// HandleMissing is the PR 8 bug class: written before StatusThrottled
// existed, it silently drops the new status.
func HandleMissing(st uint32) string {
	switch st { // want `switch on abi status values does not handle StatusThrottled`
	case abi.StatusOK:
		return "ok"
	case abi.StatusReconfig:
		return "reconfig"
	case abi.StatusBusy:
		return "busy"
	}
	return ""
}

// HandleAll covers the full family: silent.
func HandleAll(st uint32) string {
	switch st {
	case abi.StatusOK:
		return "ok"
	case abi.StatusReconfig:
		return "reconfig"
	case abi.StatusBusy:
		return "busy"
	case abi.StatusThrottled:
		return "throttled"
	}
	return ""
}

// HandleDefault is incomplete but has a default clause, so a new status
// lands somewhere visible: silent.
func HandleDefault(st uint32) string {
	switch st {
	case abi.StatusOK:
		return "ok"
	default:
		return "other"
	}
}

// HandlePartial is incomplete by design and says why: silent.
func HandlePartial(st uint32) bool {
	//detlint:partial only the busy status gates backoff here
	switch st {
	case abi.StatusBusy:
		return true
	}
	return false
}

// HandleBare has the annotation without the mandatory reason.
func HandleBare(st uint32) bool {
	//detlint:partial
	switch st { // want `needs a justification`
	case abi.StatusBusy:
		return true
	}
	return false
}

// names is an incomplete status-keyed table: a new constant would
// render as the zero value.
var names = [abi.NumStatusCodes]string{ // want `does not cover StatusBusy, StatusReconfig, StatusThrottled`
	abi.StatusOK: "ok",
}

// legend is incomplete by design and says why: silent.
//
//detlint:partial legend only labels the codes shown in the report
var legend = map[uint32]string{
	abi.StatusBusy: "busy",
}

// Use keeps the package-level tables referenced.
func Use() (string, string) { return names[0], legend[abi.StatusBusy] }

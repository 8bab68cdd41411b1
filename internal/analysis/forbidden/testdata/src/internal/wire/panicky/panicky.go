package panicky

import "errors"

func bad(cds []string) string {
	if len(cds) == 0 {
		panic("packet has no CD") // want "panic is forbidden in packet-handling package"
	}
	return cds[0]
}

func good(cds []string) (string, error) {
	if len(cds) == 0 {
		return "", errors.New("packet has no CD")
	}
	return cds[0], nil
}

func allowed() {
	//lint:allow nopanic unreachable: guarded by Validate above
	panic("unreachable")
}

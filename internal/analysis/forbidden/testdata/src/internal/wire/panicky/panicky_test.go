package panicky

// Test files in packet-path packages may panic (must-helpers, harnesses).
func mustFirst(cds []string) string {
	if len(cds) == 0 {
		panic("test helper: no CD")
	}
	return cds[0]
}

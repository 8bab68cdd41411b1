package tool

// Outside the packet path, panic on programmer error is acceptable.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

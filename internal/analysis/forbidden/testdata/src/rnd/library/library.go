package library

import "math/rand"

func bad() int {
	return rand.Intn(10) // want "global rand.Intn is forbidden"
}

func alsoBad(n int) []int {
	rand.Shuffle(n, func(i, j int) {}) // want "global rand.Shuffle is forbidden"
	return rand.Perm(n)                // want "global rand.Perm is forbidden"
}

func good(rnd *rand.Rand) float64 {
	return rnd.Float64()
}

func seeded(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

func allowed() int {
	return rand.Int() //lint:allow randinject jitter for a log message, not experiment state
}

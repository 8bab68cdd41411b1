module github.com/icn-gaming/gcopss/bench

go 1.22

require github.com/icn-gaming/gcopss v0.0.0

replace github.com/icn-gaming/gcopss => ../

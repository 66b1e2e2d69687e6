module seqstore/bench

go 1.24

require seqstore v0.0.0

replace seqstore => ../

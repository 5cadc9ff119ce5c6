module unsnap/benchmark

go 1.24

require unsnap v0.0.0

replace unsnap => ../

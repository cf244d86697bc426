module adaudit/benchmark

go 1.22

require adaudit v0.0.0

replace adaudit => ../

module fabriccrdt/bench

go 1.24

require fabriccrdt v0.0.0

replace fabriccrdt => ../

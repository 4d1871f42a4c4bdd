module hypertp/bench

go 1.23

require hypertp v0.0.0

replace hypertp => ../

let pair x = (x, x)

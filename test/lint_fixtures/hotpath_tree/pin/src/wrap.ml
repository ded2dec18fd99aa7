let one x = [ x ]

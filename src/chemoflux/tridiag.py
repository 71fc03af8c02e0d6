"""Empty: the Thomas solver is retired, and the FFT diffusion solve in
``stepping`` is checked against a dense ``numpy.linalg.solve`` instead.
The file stays only while ``bench/run.py`` imports it, and goes with that import.
"""

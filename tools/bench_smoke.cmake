# Runs the pinned fpmpart_bench smoke workload once, in spawn mode, and
# fails unless the tool exits 0 and answers all 4000 requests without an
# error.  Invoked by ctest (see CMakeLists.txt in this directory):
#
#   cmake -DBENCH=<fpmpart_bench> -DMODELS=<csv> -DREACTORS=<n>
#         -DOUT=<report.json> -P bench_smoke.cmake
execute_process(
  COMMAND ${BENCH} --models hybrid=${MODELS} --reactors ${REACTORS}
          --threads 4 --mode closed --connections 4 --requests 4000
          --seed 7 --mix 8:1:1:0 --n-min 16 --n-max 96 --out ${OUT}
  RESULT_VARIABLE status
  OUTPUT_VARIABLE output
  ERROR_VARIABLE output)
message("${output}")
if(NOT status EQUAL 0)
  message(FATAL_ERROR "fpmpart_bench exited with ${status}")
endif()
if(NOT output MATCHES "4000 completed \\(0 error\\(s\\)")
  message(FATAL_ERROR "fpmpart_bench did not answer 4000 requests cleanly")
endif()

# Runs the README's multicast_server command with its journal and
# snapshot directories nested in a fresh directory that does not exist
# yet: the server creates both and exits 0 with snapshots written.
#
#   cmake -DBINARY=<multicast_server> -DWORKDIR=<scratch dir> -P <this file>
file(REMOVE_RECURSE "${WORKDIR}")
set(journal "${WORKDIR}/run/j")
set(snapshots "${WORKDIR}/run/s")
execute_process(COMMAND "${BINARY}" --sessions=64 --data-loss=0.2
                        --journal-dir=${journal} --snapshot-dir=${snapshots}
                        --snapshot-interval=0.25
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE out)
message("exit ${rc}: ${out}")
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR "expected exit 0, got ${rc}")
endif()
if(NOT IS_DIRECTORY "${journal}")
  message(FATAL_ERROR "journal directory ${journal} was not created")
endif()
file(GLOB snapshot_files "${snapshots}/snapshot_*.json")
if(NOT snapshot_files)
  message(FATAL_ERROR "no snapshot written to ${snapshots}")
endif()

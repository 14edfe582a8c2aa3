//! The TDM ISA extension.
//!
//! Section III-A defines four new instructions through which the runtime
//! system talks to the DMU: `create_task`, `add_dependence`, `finish_task`
//! and `get_ready_task`. This module represents them as a data type so that
//! backends, traces and tests can treat runtime → DMU traffic uniformly, and
//! provides a dispatcher that executes an instruction against a [`Dmu`].
//!
//! The [`TdmInstruction::SubmitTask`] variant is the explicit commit point
//! discussed in [`crate::dmu`]: the paper folds it into the creation
//! sequence, this model makes it visible.

use crate::dmu::{Dmu, DmuError, DmuResult, ReadyTask};
use crate::ids::{DepAddr, DepDirection, DescriptorAddr, TaskId};

/// One TDM ISA instruction, as issued by the runtime system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TdmInstruction {
    /// `create_task(task_desc)`.
    CreateTask {
        /// Address of the new task's descriptor.
        descriptor: DescriptorAddr,
    },
    /// `add_dependence(task_desc, dep_addr, size, direction)`.
    AddDependence {
        /// Address of the task's descriptor.
        descriptor: DescriptorAddr,
        /// Base address of the dependence.
        address: DepAddr,
        /// Size of the dependence in bytes.
        size: u64,
        /// Direction annotated by the programmer.
        direction: DepDirection,
    },
    /// Commit point after the last `add_dependence` of a task.
    SubmitTask {
        /// Address of the task's descriptor.
        descriptor: DescriptorAddr,
    },
    /// `finish_task(task_desc)`.
    FinishTask {
        /// Address of the finished task's descriptor.
        descriptor: DescriptorAddr,
    },
    /// `get_ready_task()`.
    GetReadyTask,
}

impl TdmInstruction {
    /// A short mnemonic, for traces and debugging.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            TdmInstruction::CreateTask { .. } => "create_task",
            TdmInstruction::AddDependence { .. } => "add_dependence",
            TdmInstruction::SubmitTask { .. } => "submit_task",
            TdmInstruction::FinishTask { .. } => "finish_task",
            TdmInstruction::GetReadyTask => "get_ready_task",
        }
    }
}

impl std::fmt::Display for TdmInstruction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TdmInstruction::CreateTask { descriptor } => write!(f, "create_task({descriptor})"),
            TdmInstruction::AddDependence {
                descriptor,
                address,
                size,
                direction,
            } => write!(
                f,
                "add_dependence({descriptor}, {address}, {size}, {direction})"
            ),
            TdmInstruction::SubmitTask { descriptor } => write!(f, "submit_task({descriptor})"),
            TdmInstruction::FinishTask { descriptor } => write!(f, "finish_task({descriptor})"),
            TdmInstruction::GetReadyTask => write!(f, "get_ready_task()"),
        }
    }
}

/// The result of executing one [`TdmInstruction`].
#[derive(Debug, Clone, PartialEq)]
pub enum TdmResponse {
    /// `create_task` completed; the DMU allocated this internal ID.
    Created(TaskId),
    /// `add_dependence` completed.
    DependenceAdded,
    /// `submit_task` completed; `true` if the task went straight to the
    /// Ready Queue.
    Submitted(bool),
    /// `finish_task` completed; these tasks became ready.
    Finished(Vec<TaskId>),
    /// `get_ready_task` completed; `None` means the Ready Queue was empty.
    Ready(Option<ReadyTask>),
}

/// Executes `instruction` against `dmu`, returning the response and the
/// structure accesses performed.
///
/// # Errors
///
/// Propagates [`DmuError`] from the underlying operation (stalls and
/// protocol violations). `get_ready_task` never fails.
pub fn execute(
    dmu: &mut Dmu,
    instruction: TdmInstruction,
) -> Result<DmuResult<TdmResponse>, DmuError> {
    match instruction {
        TdmInstruction::CreateTask { descriptor } => {
            let r = dmu.create_task(descriptor)?;
            Ok(DmuResult {
                value: TdmResponse::Created(r.value),
                accesses: r.accesses,
            })
        }
        TdmInstruction::AddDependence {
            descriptor,
            address,
            size,
            direction,
        } => {
            let r = dmu.add_dependence(descriptor, address, size, direction)?;
            Ok(DmuResult {
                value: TdmResponse::DependenceAdded,
                accesses: r.accesses,
            })
        }
        TdmInstruction::SubmitTask { descriptor } => {
            let r = dmu.submit_task(descriptor)?;
            Ok(DmuResult {
                value: TdmResponse::Submitted(r.value),
                accesses: r.accesses,
            })
        }
        TdmInstruction::FinishTask { descriptor } => {
            let r = dmu.finish_task(descriptor)?;
            Ok(DmuResult {
                value: TdmResponse::Finished(r.value),
                accesses: r.accesses,
            })
        }
        TdmInstruction::GetReadyTask => {
            let r = dmu.get_ready_task();
            Ok(DmuResult {
                value: TdmResponse::Ready(r.value),
                accesses: r.accesses,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DmuConfig;

    #[test]
    fn instruction_stream_builds_and_drains_a_graph() {
        let mut dmu = Dmu::new(DmuConfig::default());
        let producer = DescriptorAddr(0x1000);
        let consumer = DescriptorAddr(0x2000);
        let data = DepAddr(0xA000);

        let program = vec![
            TdmInstruction::CreateTask {
                descriptor: producer,
            },
            TdmInstruction::AddDependence {
                descriptor: producer,
                address: data,
                size: 4096,
                direction: DepDirection::Out,
            },
            TdmInstruction::SubmitTask {
                descriptor: producer,
            },
            TdmInstruction::CreateTask {
                descriptor: consumer,
            },
            TdmInstruction::AddDependence {
                descriptor: consumer,
                address: data,
                size: 4096,
                direction: DepDirection::In,
            },
            TdmInstruction::SubmitTask {
                descriptor: consumer,
            },
        ];
        for instr in program {
            execute(&mut dmu, instr).unwrap();
        }

        let r = execute(&mut dmu, TdmInstruction::GetReadyTask).unwrap();
        match r.value {
            TdmResponse::Ready(Some(t)) => assert_eq!(t.descriptor, producer),
            other => panic!("unexpected response {other:?}"),
        }
        execute(
            &mut dmu,
            TdmInstruction::FinishTask {
                descriptor: producer,
            },
        )
        .unwrap();
        let r = execute(&mut dmu, TdmInstruction::GetReadyTask).unwrap();
        match r.value {
            TdmResponse::Ready(Some(t)) => assert_eq!(t.descriptor, consumer),
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn mnemonics_and_display() {
        let i = TdmInstruction::AddDependence {
            descriptor: DescriptorAddr(0x10),
            address: DepAddr(0x20),
            size: 64,
            direction: DepDirection::In,
        };
        assert_eq!(i.mnemonic(), "add_dependence");
        assert!(i.to_string().contains("add_dependence"));
        assert_eq!(TdmInstruction::GetReadyTask.mnemonic(), "get_ready_task");
        assert_eq!(
            TdmInstruction::CreateTask {
                descriptor: DescriptorAddr(1)
            }
            .mnemonic(),
            "create_task"
        );
        assert_eq!(
            TdmInstruction::SubmitTask {
                descriptor: DescriptorAddr(1)
            }
            .mnemonic(),
            "submit_task"
        );
        assert_eq!(
            TdmInstruction::FinishTask {
                descriptor: DescriptorAddr(1)
            }
            .mnemonic(),
            "finish_task"
        );
    }

    #[test]
    fn errors_are_propagated() {
        let mut dmu = Dmu::new(DmuConfig::default());
        let err = execute(
            &mut dmu,
            TdmInstruction::FinishTask {
                descriptor: DescriptorAddr(0xDEAD),
            },
        )
        .unwrap_err();
        assert!(matches!(err, DmuError::UnknownTask(_)));
    }
}
